// Directed execution: runs driven by adaptive adversaries. Run assumes the
// whole schedule is known ahead of the run, so an adversary that must *react*
// to executed steps — the parking adversary of the Theorem 26/27
// experiments — would otherwise pay a Step call, a StepInfo, and an observer
// dispatch per step. A Director collapses that round trip: it supplies the
// next process to schedule and is called back only on write steps, with the
// register identified by its dense RegID instead of a name to parse.
// RunDirected hands the director to the same kernel as Run (exec, in
// machine.go), which asks it for each next process and reports writes to
// it; a Byzantine director's WriteMutator is consulted by the kernel at the
// write point.
//
// This mirrors the adaptive-adversary-as-scheduler framing used by
// lower-bound executions in the literature: the adversary IS the schedule
// source, and the simulator only owes it the write events it bases its next
// scheduling decision on.

package sim

import "github.com/settimeliness/settimeliness/internal/procset"

// Director adaptively drives a run: Next picks the process taking the next
// step (the adversary's scheduling decision), and OnWrite reports every
// executed write step — the only step kind the parking adversaries react to.
// OnWrite runs after the write (and the writer's following local
// computation) completed, i.e. at the point a Config.Observer would have
// seen the step; slot is the register's dense id (see RegID and
// Runner.RegName) and value the value written.
//
// Read and no-op steps produce no callback: a directed run's only per-step
// costs beyond the batched loop are the Next dispatch and a branch.
type Director interface {
	Next() procset.ID
	OnWrite(slot RegID, proc procset.ID, value any)
}

// WriteMutator is the pre-write interception hook of the Byzantine fault
// plane: a director that also implements it is consulted before each write
// lands and may replace the value stored in the register. MutateWrite
// receives the register's dense slot, the writer, the register's current
// (pre-write) content old, and the value the automaton asked to write; it
// returns the value that actually lands. Returning value unchanged makes
// the write honest. The writer's automaton is never told — it proceeds
// believing its own value landed, which is exactly the corrupting-writer
// model (flipped bits, equivocation, replayed stale values).
//
// Contract: OnWrite still fires after the write with the value that landed
// (the mutated one), so schedule-reactive state sees shared-memory reality.
// Mutating directors run only on the machine-mode directed fast path and
// require a runner built with Config.NoRecycle — a replayed old (or an
// honest value retained for later injection) outlives the overwrite that
// would normally retire it, which breaks the arena recycler's reuse
// horizon; RunDirected panics on violations of either requirement rather
// than silently dropping mutations. Mutated values must respect the
// invariants the algorithms' readers check at runtime (e.g. int-typed
// registers stay int-typed); a mutation that breaks a reader's type
// assertion panics the run, which the campaign engine isolates and reports.
type WriteMutator interface {
	MutateWrite(slot RegID, proc procset.ID, old, value any) any
}

// DirectorRW is a director with the pre-write interception hook — the
// interface Byzantine adversaries implement.
type DirectorRW interface {
	Director
	WriteMutator
}

// RunDirected drives the runner with steps chosen by the director until the
// stop predicate returns true (checked every checkEvery steps; 0 means every
// step) or maxSteps have been executed — Run's contract with the schedule
// source replaced by an adaptive director. Machine-mode runners without an
// observer step through the kernel directly; other configurations call Step
// per entry, with identical observable behavior (schedules, write
// callbacks, stop decisions).
func (r *Runner) RunDirected(d Director, maxSteps, checkEvery int, stop func() bool) RunResult {
	direct := r.machine != nil && r.observer == nil
	if _, mutating := d.(WriteMutator); mutating {
		if !direct {
			// Mutation needs the kernel's write point: a Step-per-entry loop
			// would execute writes before the director could intercept them,
			// and silently-honest "Byzantine" runs are a false-green hazard.
			panic("sim: WriteMutator directors require a machine-mode runner without an observer")
		}
		if r.mem.recycleOK {
			panic("sim: WriteMutator directors require Config.NoRecycle (replayed/retained values outlive the recycler's reuse horizon)")
		}
	}
	return r.chunked(maxSteps, checkEvery, stop, func(k int) {
		if direct {
			r.exec(k, nil, d, nil)
			return
		}
		for ; k > 0; k-- {
			p := d.Next()
			if info := r.Step(p); info.Kind == OpWrite {
				// The register id is resolved through the interning table,
				// off the fast path by construction.
				d.OnWrite(r.mem.idOf(info.Reg), p, info.Value)
			}
		}
	})
}
