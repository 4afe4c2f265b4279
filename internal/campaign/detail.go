package campaign

import "encoding/json"

// DecodeDetail recovers a typed Outcome.Detail regardless of how the outcome
// traveled. An outcome from an in-process worker carries the value the job
// stored; one that crossed the worker protocol or was replayed from a
// checkpoint journal carries its Detail as json.RawMessage instead, which
// decodes into any T that accepts the JSON. RunSweep decodes the Detail of
// every job that did not panic through it, so resumed and distributed
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
