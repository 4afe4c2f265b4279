package experiments

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// decodeAs is campaign.DecodeDetail as T, boxed.
func decodeAs[T any](raw json.RawMessage) (any, bool) { return campaign.DecodeDetail[T](raw) }

// FuzzDecodeDetail marshals each Detail type a sweep stores (an explore
// violation, a matrix cell) and a panicked job's PanicDetail from generated
// fields, and decodes each, as it comes back from the checkpoint journal or
// the worker wire, as every one of those types: only the decode as its own
// type may succeed, and it must give back what was marshalled. (The sweeps
// whose Detail type is struct{} store none.)
func FuzzDecodeDetail(f *testing.F) {
	f.Add("boom", "", 1, 2, false, []byte{})
	f.Add("", "goroutine 1 [running]:", 3, 2, true, []byte{1, 2, 3})
	f.Add("agreement violated", "flight recorder: last 2 step(s)", 2, 5, true, []byte{0, 7, 7})
	f.Fuzz(func(t *testing.T, text, more string, x, y int, flag bool, steps []byte) {
		// JSON carries text as UTF-8 only.
		text, more = strings.ToValidUTF8(text, "\uFFFD"), strings.ToValidUTF8(more, "\uFFFD")
		s := make(sched.Schedule, len(steps))
		for k, b := range steps {
			s[k] = procset.ID(1 + b%8)
		}
		details := []any{
			// A violation always carries its check's error message.
			&explore.Violation{Schedule: s, Err: errors.New(cmp.Or(text, "violated")), Flight: more, Trace: text},
			&MatrixCell{Problem: core.Problem{T: x, K: y, N: x + y}, I: x, J: y, Theory: flag, Empirical: text, Match: !flag, Steps: len(steps)},
			campaign.PanicDetail{Message: text},
		}
		decoders := []func(json.RawMessage) (any, bool){
			decodeAs[*explore.Violation], decodeAs[*MatrixCell], decodeAs[campaign.PanicDetail],
		}
		for i, d := range details {
			raw, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			for k, decode := range decoders {
				got, ok := decode(raw)
				if ok != (k == i) {
					t.Fatalf("%s decoded as detail type %d: ok = %v", raw, k, ok)
				}
				if !ok {
					continue
				}
				if back, err := json.Marshal(got); err != nil || !bytes.Equal(back, raw) {
					t.Fatalf("%s decoded and marshalled again as %s (%v)", raw, back, err)
				}
			}
		}
	})
}
