package sched

import (
	"slices"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// FuzzParseSchedule holds the schedule and set parsers, which read a
// violation's schedule text back in, to their String forms: neither Parse
// panics on any text, a successful parse round-trips through String, and
// every schedule and set of ids 1..64 (drawn from the text's bytes)
// round-trips.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{"", "1 3 1", "p64", "p65", "p0", "-1", "{p1,p4}", "1,4"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if s, err := Parse(text); err == nil {
			if got, err := Parse(s.String()); err != nil || !slices.Equal(got, s) {
				t.Fatalf("Parse(%q) = %v, which reparses as %v (%v)", text, s, got, err)
			}
		}
		if set, err := procset.Parse(text); err == nil {
			if got, err := procset.Parse(set.String()); err != nil || got != set {
				t.Fatalf("procset.Parse(%q) = %v, which reparses as %v (%v)", text, set, got, err)
			}
		}

		s := make(Schedule, len(text))
		var set procset.Set
		for i := 0; i < len(text); i++ {
			p := procset.ID(text[i]%procset.MaxProcs + 1)
			s[i] = p
			set = set.Add(p)
		}
		if got, err := Parse(s.String()); err != nil || !slices.Equal(got, s) {
			t.Fatalf("schedule %v reparses as %v (%v)", s, got, err)
		}
		if got, err := procset.Parse(set.String()); err != nil || got != set {
			t.Fatalf("set %v reparses as %v (%v)", set, got, err)
		}
	})
}
