// Package bg implements the Borowsky–Gafni simulation: m simulators
// executing n simulated threads of a read/snapshot protocol, coordinating
// through safe agreement objects. It is the gadget behind the negative
// directions of Theorems 26 and 27 of the paper ("this claim is shown using
// a simulation algorithm that is similar to those in [6, 7]").
//
// The package provides:
//
//   - SafeAgreement: the classic wait-free safe agreement object (agreement,
//     validity; termination of Resolve may be blocked only while some
//     proposer is inside its doorway — each crashed simulator can block at
//     most one object at a time).
//   - Simulation: the BG protocol simulation in write/snapshot normal form,
//     with the recorded simulated schedule exposed so experiments can verify
//     the two schedule properties used by Theorem 26(2): (i) at most m−1
//     simulated threads block, and (ii) with fair simulators every m-sized
//     set of threads is timely with respect to all threads.
package bg

import (
	"strconv"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
	"github.com/settimeliness/settimeliness/internal/snapshot"
)

// saName builds the name of the safe agreement object for one simulated
// (thread, round), shared by the coroutine and machine simulators so both
// intern the same registers. Plain concatenation: one object is created per
// resolved round, so naming sits near the hot path.
func saName(thread, round int) string {
	return "bg[" + strconv.Itoa(thread) + "," + strconv.Itoa(round) + "]"
}

// saLevel values for the safe agreement doorway.
const (
	saBackedOff = 0 // proposed but yielded to an earlier level-2
	saUnsafe    = 1 // inside the doorway
	saSafe      = 2 // proposal fixed
)

type saEntry struct {
	Level int
	Val   any
}

// SafeAgreement is one process's handle on a named safe agreement object.
// Propose must be called at most once per process; Resolve may be called any
// number of times, by proposers and non-proposers alike.
type SafeAgreement struct {
	snap     *snapshot.Object
	n        int
	proposed bool
}

// NewSafeAgreement creates the handle. It performs no steps.
func NewSafeAgreement(env sim.Env, name string) *SafeAgreement {
	return &SafeAgreement{snap: snapshot.New(env, "sa."+name), n: env.N()}
}

// Propose enters the doorway with value v: publish at the unsafe level,
// scan, and either fix the proposal (level 2) or back off if someone already
// fixed theirs. The doorway is the only section whose interruption by a
// crash can block Resolve.
func (sa *SafeAgreement) Propose(v any) {
	if sa.proposed {
		return
	}
	sa.proposed = true
	sa.snap.Update(saEntry{Level: saUnsafe, Val: v})
	view := sa.snap.Scan()
	for q := 1; q <= sa.n; q++ {
		if e, ok := view.Get(procset.ID(q)).(saEntry); ok && e.Level == saSafe {
			sa.snap.Update(saEntry{Level: saBackedOff, Val: v})
			return
		}
	}
	sa.snap.Update(saEntry{Level: saSafe, Val: v})
}

// Resolve returns the agreed value once the object is safe: no process is
// inside the doorway and at least one proposal is fixed. All resolvers
// return the value of the fixed proposal with the smallest process id; that
// set is frozen once any Resolve succeeds.
func (sa *SafeAgreement) Resolve() (any, bool) {
	view := sa.snap.Scan()
	choice := 0
	for q := 1; q <= sa.n; q++ {
		e, ok := view.Get(procset.ID(q)).(saEntry)
		if !ok {
			continue
		}
		switch e.Level {
		case saUnsafe:
			return nil, false
		case saSafe:
			if choice == 0 {
				choice = q
			}
		}
	}
	if choice == 0 {
		return nil, false
	}
	return view.Get(procset.ID(choice)).(saEntry).Val, true
}
