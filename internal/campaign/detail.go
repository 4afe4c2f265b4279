package campaign

import (
	"bytes"
	"encoding/json"
)

// DecodeDetail recovers a typed Outcome.Detail regardless of how the outcome
// traveled. An outcome from an in-process worker carries the value the job
// stored; one that crossed the worker protocol or was replayed from a
// checkpoint journal carries its Detail as json.RawMessage instead, which
// decodes into a T that accepts the JSON and has every field it names.
// RunSweep decodes the Detail of every job that did not panic through it,
// so resumed and distributed campaigns see the same types as in-process
// ones.
func DecodeDetail[T any](detail any) (T, bool) {
	switch d := detail.(type) {
	case T:
		return d, true
	case json.RawMessage:
		// A field T does not have marks another type's detail, not a T.
		dec := json.NewDecoder(bytes.NewReader(d))
		dec.DisallowUnknownFields()
		var v T
		if err := dec.Decode(&v); err == nil {
			return v, true
		}
	}
	var zero T
	return zero, false
}
