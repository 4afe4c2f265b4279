// The run loops. Every machine-mode step — Step, Run, RunSchedule,
// RunDirected, honest or Byzantine — executes through one kernel, exec
// (machine.go), which applies the pending operation, counts it, advances
// the machine, and itself loops over a block of process ids or a
// Director's choices (directed.go). The entry points differ only in what
// they hand it:
//
//   - Run on a machine runner without an observer prefetches schedule
//     entries in blocks (through sched.BlockSource when the source provides
//     it) and hands each block to the kernel, materializing no StepInfo at
//     all; RunSchedule hands over its whole fixed schedule.
//   - Step hands it one id and a result slot, from which it fills the
//     StepInfo. Run with an observer, and every coroutine run, takes one
//     Step per entry: the observer needs its StepInfo, and a coroutine step
//     blocks on two channel handoffs anyway, so batching would buy nothing
//     there.
//
// The stop()/checkEvery branching is hoisted out of the inner loops by
// chunked: chunks are sized so checks land exactly on the multiples of
// checkEvery where a per-step loop would have performed them.

package sim

import "github.com/settimeliness/settimeliness/internal/sched"

// batchBlock is the schedule prefetch size. Big enough to amortize the
// per-block source call and loop bookkeeping, small enough to stay in cache
// and to keep partial blocks (between stop checks) cheap to fill.
const batchBlock = 256

// RunResult summarizes a Run invocation.
type RunResult struct {
	// Steps is the number of steps executed by this Run call.
	Steps int
	// Stopped reports whether the stop predicate ended the run (as opposed
	// to the step budget running out).
	Stopped bool
}

// Run drives the runner with steps from src until the stop predicate returns
// true (checked every checkEvery steps; 0 means every step) or maxSteps have
// been executed. stop may be nil. Machine-mode runners without an observer
// prefetch the schedule in blocks and step without materializing StepInfo;
// all other configurations call Step per entry. The two are bit-identical.
func (r *Runner) Run(src sched.Source, maxSteps, checkEvery int, stop func() bool) RunResult {
	batched := r.machine != nil && r.observer == nil
	return r.chunked(maxSteps, checkEvery, stop, func(k int) {
		if !batched {
			for ; k > 0; k-- {
				r.Step(src.Next())
			}
			return
		}
		// The prefetch buffer lives on the runner: handed to the schedule
		// source through an interface it would escape, costing one 2 KiB
		// heap allocation per Run call.
		for k > 0 {
			block := r.batchBuf[:min(k, batchBlock)]
			sched.FillBlock(src, block)
			r.exec(len(block), block, nil, nil)
			k -= len(block)
		}
	})
}

// RunSchedule executes a fixed finite schedule. Like Run it skips StepInfo
// when there is no observer to feed.
func (r *Runner) RunSchedule(s sched.Schedule) {
	if r.machine == nil || r.observer != nil {
		for _, p := range s {
			r.Step(p)
		}
		return
	}
	if r.closed {
		panic("sim: Step after Close")
	}
	r.exec(len(s), s, nil, nil)
}

// chunked is the stop-check loop shared by Run and RunDirected: it calls
// steps(k) for consecutive chunks of k steps, sized so that stop runs after
// exactly every checkEvery-th step (0 means every step), until stop returns
// true or maxSteps have been executed. With stop nil the whole budget is one
// chunk.
func (r *Runner) chunked(maxSteps, checkEvery int, stop func() bool, steps func(k int)) RunResult {
	if r.closed {
		panic("sim: Step after Close")
	}
	if checkEvery <= 0 {
		checkEvery = 1
	}
	executed := 0
	for executed < maxSteps {
		k := maxSteps - executed
		if stop != nil && k > checkEvery {
			k = checkEvery
		}
		steps(k)
		executed += k
		if stop != nil && executed%checkEvery == 0 && stop() {
			return RunResult{Steps: executed, Stopped: true}
		}
	}
	return RunResult{Steps: maxSteps}
}
