package campaign

import "encoding/json"

// DecodeDetail recovers a typed Outcome.Detail regardless of how the outcome
// traveled. On the plain in-process path Detail is the value the job stored;
// an outcome that crossed the worker protocol or was replayed from a
// checkpoint journal carries its Detail as json.RawMessage instead. RunSweep
// decodes every job's Detail through it, so resumed and distributed
// campaigns see the same types as in-process ones.
func DecodeDetail[T any](detail any) (T, bool) {
	switch d := detail.(type) {
	case T:
		return d, true
	case json.RawMessage:
		var v T
		if err := json.Unmarshal(d, &v); err == nil {
			return v, true
		}
	}
	var zero T
	return zero, false
}
