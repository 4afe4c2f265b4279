// The flight recorder: an off-by-default fixed ring of the last K executed
// steps, for post-mortem debugging of directed/adversarial runs whose fast
// paths deliberately materialize no StepInfo. When attached, every step
// (machine steps in the step kernel, coroutine steps in Step) appends one
// fixed-size record — proc, kind, dense register id, step index — to the ring;
// values are deliberately NOT recorded, because retaining written values
// would break the recycler's reuse horizon on arena-backed runners (the
// same reason observers disable recycling). Recording therefore leaves the
// run bit-identical and allocation-free; the only cost is one predictable
// nil-check per step while detached and a few stores while attached.
//
// The ring is dumped on demand — typically on a verdict failure or from a
// panic handler (see internal/explore's adversarial campaign and
// internal/obs for the formatted dump).

package sim

import (
	"fmt"
	"io"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// FlightRec is one recorded step. Reg is the dense register id (resolve
// names with Runner.RegName); it is -1 for no-op steps of halted processes
// and for message steps (send/recv), which touch no register.
type FlightRec struct {
	Index int
	Proc  procset.ID
	Kind  OpKind
	Reg   RegID
}

// FlightRecorder is a fixed-capacity ring of the most recent steps.
// It is owned by the stepping goroutine, like the runner itself.
type FlightRecorder struct {
	recs []FlightRec
	pos  int
	len  int
}

// NewFlightRecorder returns a recorder retaining the last k steps (k ≥ 1).
func NewFlightRecorder(k int) *FlightRecorder {
	if k < 1 {
		panic(fmt.Sprintf("sim: flight recorder capacity %d < 1", k))
	}
	return &FlightRecorder{recs: make([]FlightRec, k)}
}

// record appends one step, overwriting the oldest when full.
func (f *FlightRecorder) record(index int, p procset.ID, kind OpKind, reg RegID) {
	f.recs[f.pos] = FlightRec{Index: index, Proc: p, Kind: kind, Reg: reg}
	f.pos++
	if f.pos == len(f.recs) {
		f.pos = 0
	}
	if f.len < len(f.recs) {
		f.len++
	}
}

// Len returns the number of records currently retained.
func (f *FlightRecorder) Len() int { return f.len }

// Records returns the retained steps oldest-first, as a fresh slice.
func (f *FlightRecorder) Records() []FlightRec {
	out := make([]FlightRec, 0, f.len)
	start := f.pos - f.len
	if start < 0 {
		start += len(f.recs)
	}
	for i := 0; i < f.len; i++ {
		out = append(out, f.recs[(start+i)%len(f.recs)])
	}
	return out
}

// Reset empties the ring.
func (f *FlightRecorder) Reset() { f.pos, f.len = 0, 0 }

// Dump writes the retained steps oldest-first, one line per step, resolving
// register names through the runner the recorder was attached to. Processes
// carrying a non-honest fault class (Runner.SetFaultClass) are annotated
// per line — the class is resolved at dump time from the runner's current
// tags, so recording stays a fixed-size store and fault-free dumps are
// byte-identical to before the tagging existed.
func (f *FlightRecorder) Dump(w io.Writer, r *Runner) {
	recs := f.Records()
	fmt.Fprintf(w, "flight recorder: last %d step(s)\n", len(recs))
	for _, rec := range recs {
		tag := ""
		if fc := r.FaultClass(rec.Proc); fc != FaultHonest {
			tag = " [" + fc.String() + "]"
		}
		switch rec.Kind {
		case OpNoop:
			fmt.Fprintf(w, "  #%d %v noop (halted)%s\n", rec.Index, rec.Proc, tag)
		case OpSend, OpRecv:
			// Message steps carry no register (Reg is -1); endpoints and
			// payloads live on the network side, deliberately not retained.
			fmt.Fprintf(w, "  #%d %v %v%s\n", rec.Index, rec.Proc, rec.Kind, tag)
		default:
			fmt.Fprintf(w, "  #%d %v %v %s%s\n", rec.Index, rec.Proc, rec.Kind, r.RegName(rec.Reg), tag)
		}
	}
}

// SetFlightRecorder attaches (or, with nil, detaches) a flight recorder.
// The recorder survives Reset — its ring keeps accumulating across pooled
// jobs unless the caller resets it — and must only be touched from the
// stepping goroutine.
func (r *Runner) SetFlightRecorder(f *FlightRecorder) { r.flight = f }

// FlightRecorder returns the attached recorder, or nil.
func (r *Runner) FlightRecorder() *FlightRecorder { return r.flight }
