// Package adversary implements the adaptive scheduler used to exercise the
// impossibility side of Theorems 26 and 27.
//
// A fixed schedule family rarely defeats a concrete algorithm: the Theorem
// 24 construction can commit a consensus instance during any transiently
// quiet window. The proofs therefore rely on an adversary that reacts to the
// execution. This package provides one specialized against this repository's
// solver (which is all an executable witness can be — the theorem itself
// rules out every algorithm):
//
//   - Park rule: the moment a process performs a phase-2 ballot write in any
//     consensus instance, it is parked (stops being scheduled). Since every
//     decision write is preceded in the same ballot by that process's
//     phase-2 write, no decision register is ever written.
//   - Resume rule: a parked process is released as soon as a strictly higher
//     ballot is planted in the same instance; its next steps re-read the
//     ballot blocks, observe the intruder and abort. Parking is therefore
//     always temporary (no process crashes), and at most one process is
//     parked per instance at a time, so at most DetectorK ≤ k processes are
//     parked at any instant.
//   - Base schedule: round-robin over the unparked live processes, with an
//     optional set of processes crashed from the start (the "fictitious"
//     processes of the Theorem 27 case 2(b) construction).
//
// Consequences for the generated schedule: every set of k+1 live processes
// is timely with respect to Πn (at most k parked at once, the rest scheduled
// round-robin), so the schedule lies in S^i_{j,n} for the configured cell,
// while the parked-on-demand pattern starves exactly the processes that are
// about to decide.
//
// The adversary is a sim.Director: DriveDirected runs it on the simulator's
// directed fast path, where it is consulted once per step for the next
// process and called back only on write steps, with the written register
// identified by its interned dense id (no string parsing, no StepInfo). Its
// state is dense to match — the parked set is a bitset over Πn, park records
// live in a flat array, and per-instance ballot maxima in a slice indexed by
// the interned instance id. On a coroutine runner RunDirected calls Step for
// each entry, so the same adversary drives both execution modes, with
// bit-identical scheduling decisions (pinned by the package's tests).
package adversary

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/settimeliness/settimeliness/internal/consensus"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// DefaultScheduleLimit is the number of schedule entries recorded when
// Config.ScheduleLimit is zero: the conformance checks of the experiments
// analyze exactly this prefix, so recording more would grow an unbounded
// slice (hundreds of thousands of entries per negative-budget run) that
// nobody reads.
const DefaultScheduleLimit = 50_000

// RecordAll disables the schedule-recording bound (Config.ScheduleLimit).
const RecordAll = -1

// Config parameterizes the adversary.
type Config struct {
	// N is the system size.
	N int
	// CrashedFromStart are processes that never take a step.
	CrashedFromStart procset.Set
	// ScheduleLimit bounds how many schedule entries Schedule retains:
	// 0 means DefaultScheduleLimit, RecordAll disables the bound (tests
	// that analyze full runs use this). Scheduling decisions are unaffected.
	ScheduleLimit int
}

// parkInfo records why a process is parked: the instance (dense id) whose
// phase-2 write it performed, and at which ballot.
type parkInfo struct {
	instance int
	ballot   int
}

// Adversary drives a sim.Runner adaptively. It pools: Reset (or
// ResetCrashed) returns it to its initial state so campaign workers reuse
// one adversary per rig.
type Adversary struct {
	cfg Config
	// live is Πn minus the crashed-from-start processes: the round-robin's
	// domain. cursor is the 0-based bit the round-robin scan resumes at, one
	// past the process scheduled last (0 before the first step).
	live   procset.Set
	cursor uint

	parkedSet procset.Set
	parked    [procset.MaxProcs + 1]parkInfo

	// maxBallot holds the highest planted ballot per consensus instance,
	// indexed by the table's dense instance id.
	maxBallot []int

	// table resolves register slots to (instance, kind) metadata; it is
	// bound to the runner DriveDirected last ran against.
	table   *consensus.Table
	boundTo *sim.Runner

	schedule sched.Schedule
	schedMax int
	steps    int
}

// New builds an adversary.
func New(cfg Config) (*Adversary, error) {
	a := &Adversary{table: consensus.NewTable(nil)}
	if err := a.configure(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// configure validates cfg and installs it, resetting all run state.
func (a *Adversary) configure(cfg Config) error {
	if cfg.N < 1 || cfg.N > procset.MaxProcs {
		return fmt.Errorf("adversary: n = %d out of range", cfg.N)
	}
	live := procset.FullSet(cfg.N).Minus(cfg.CrashedFromStart)
	if live.IsEmpty() {
		return fmt.Errorf("adversary: all processes crashed")
	}
	a.cfg = cfg
	a.live = live
	a.schedMax = cfg.ScheduleLimit
	switch {
	case a.schedMax == 0:
		a.schedMax = DefaultScheduleLimit
	case a.schedMax < 0:
		a.schedMax = math.MaxInt
	}
	a.resetRun()
	return nil
}

// resetRun clears the per-run state (park records, ballot maxima, schedule).
func (a *Adversary) resetRun() {
	a.cursor = 0
	a.parkedSet = procset.EmptySet
	clear(a.maxBallot)
	a.schedule = a.schedule[:0]
	a.steps = 0
}

// Reset returns the adversary to its initial state under the same
// configuration, so it can drive another run (the campaign pool's path).
// The register-metadata binding survives: a pooled adversary reused with
// its pooled runner pays no re-interning.
func (a *Adversary) Reset() { a.resetRun() }

// ResetCrashed is Reset with a different crashed-from-start set — the matrix
// campaign varies the Theorem 27 case 2(b) fictitious processes per cell
// while pooling everything else.
func (a *Adversary) ResetCrashed(crashed procset.Set) error {
	cfg := a.cfg
	cfg.CrashedFromStart = crashed
	return a.configure(cfg)
}

// Correct returns the set of processes scheduled infinitely often: everyone
// not crashed from the start (parking is always temporary).
func (a *Adversary) Correct() procset.Set {
	return procset.FullSet(a.cfg.N).Minus(a.cfg.CrashedFromStart)
}

// Schedule returns the recorded prefix of the generated schedule (bounded by
// Config.ScheduleLimit; see Steps for the total step count).
func (a *Adversary) Schedule() sched.Schedule { return a.schedule }

// Steps returns how many steps the adversary has scheduled in total, which
// may exceed len(Schedule()) once the recording bound is reached.
func (a *Adversary) Steps() int { return a.steps }

// next picks the round-robin successor among unparked live processes: the
// lowest member of live − parked at or above the cursor, else (wrapping) the
// lowest member overall. The sets are bitsets, so the pick is a few mask
// operations and a trailing-zero count, with no division and no scan, and
// next fits the inliner's budget.
//
// If every live process is parked (which the park/resume invariants prevent,
// but guard anyway), the pick runs over live instead and releases the
// process it lands on — the one the round-robin reaches next — to keep the
// schedule infinite. Clearing the picked process's park bit is a no-op
// otherwise, since the pick is unparked, so the fallback costs no branch of
// its own.
func (a *Adversary) next() procset.ID {
	avail := uint64(a.live &^ a.parkedSet)
	if avail == 0 {
		avail = uint64(a.live)
	}
	if above := avail & (^uint64(0) << a.cursor); above != 0 {
		avail = above
	}
	i := uint(bits.TrailingZeros64(avail))
	a.cursor = i + 1
	a.parkedSet &^= 1 << i
	return procset.ID(i + 1)
}

// record appends a scheduling decision to the bounded schedule recording.
func (a *Adversary) record(p procset.ID) {
	a.steps++
	if len(a.schedule) < a.schedMax {
		a.schedule = append(a.schedule, p)
	}
}

// Next implements sim.Director: emit the next scheduling decision. Drive
// directed runs through DriveDirected rather than passing the adversary to
// Runner.RunDirected yourself — DriveDirected binds the register-metadata
// table to the runner first, without which OnWrite cannot resolve slots.
func (a *Adversary) Next() procset.ID {
	p := a.next()
	a.record(p)
	return p
}

// OnWrite implements sim.Director: classify the write through the interned
// register metadata and apply the park/resume rules to ballot writes.
func (a *Adversary) OnWrite(slot sim.RegID, proc procset.ID, value any) {
	e := a.table.Entry(slot)
	if e.Kind != consensus.RegisterBallot {
		return
	}
	a.onBallotWrite(e.Instance, proc, value)
}

// onBallotWrite applies the park/resume rules.
func (a *Adversary) onBallotWrite(instance int, proc procset.ID, value any) {
	mbal, _, phase2, ok := consensus.BlockInfo(value)
	if !ok {
		return
	}
	for instance >= len(a.maxBallot) {
		a.maxBallot = append(a.maxBallot, 0)
	}
	if mbal > a.maxBallot[instance] {
		a.maxBallot[instance] = mbal
		// A strictly higher ballot was planted: release any process parked
		// on this instance with a lower ballot — when it resumes, its
		// phase-2 read sweep will observe the intruder and abort.
		for s := uint64(a.parkedSet); s != 0; s &= s - 1 {
			p := procset.ID(bits.TrailingZeros64(s) + 1)
			if pk := &a.parked[p]; pk.instance == instance && pk.ballot < mbal {
				a.parkedSet = a.parkedSet.Remove(p)
			}
		}
	}
	if phase2 {
		// The writer is one read-sweep away from a decision write: park it
		// until someone plants a higher ballot.
		a.parked[proc] = parkInfo{instance: instance, ballot: mbal}
		a.parkedSet = a.parkedSet.Add(proc)
	}
}

// DriveDirected executes up to maxSteps steps against the runner on the
// simulator's directed fast path, checking stop every checkEvery steps. It
// returns the number of steps taken and whether the stop predicate fired.
// It runs on machine and coroutine runners alike, with bit-identical
// scheduling decisions, park/resume behavior, and recorded schedule.
func (a *Adversary) DriveDirected(runner *sim.Runner, maxSteps, checkEvery int, stop func() bool) (int, bool) {
	if a.boundTo != runner {
		// A new runner means a new slot namespace: rebind the metadata
		// table (instance numbering survives, so accumulated ballot maxima
		// keep their meaning).
		a.boundTo = runner
		a.table.Rebind(runner.RegName)
	}
	res := runner.RunDirected(a, maxSteps, checkEvery, stop)
	return res.Steps, res.Stopped
}

// MaxParked returns the number of processes currently parked (diagnostics;
// the invariant keeps it at most the number of consensus instances in play).
func (a *Adversary) MaxParked() int { return a.parkedSet.Size() }
