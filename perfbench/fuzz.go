package main

import (
	"context"
	"errors"
	"fmt"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// The fuzz workload: the nightly schedule-fuzzing shape. Each call fuzzes
// one pooled target at n = 4 with 300-step random schedules, every schedule
// seed once failure-free and once under each of seven one-crash patterns.
// A call makes 20,000 runs, as the nightly job's `fuzz -schedules 20000`
// does, so the campaign splits it the same way: 79 jobs of up to 256 runs.
// A crash pattern changes how much work a run does, so several per call
// keep call times from depending on one pattern.
const (
	fuzzN       = 4
	fuzzSteps   = 300
	fuzzCrashes = 7     // one-crash patterns per call
	fuzzSeeds   = 2_500 // schedule seeds per call; runs = seeds × (1 + fuzzCrashes)
	// fuzzGateSeeds is the prefix of a call's schedule seeds the gate
	// replays on both execution paths. Replaying a whole call on the
	// coroutine path takes 2.5–12 s per target, longer than the timed loop.
	fuzzGateSeeds = 256
)

var fuzzTargets = []string{
	explore.TargetCommitAdopt, explore.TargetConsensus, explore.TargetCAChain,
	explore.TargetKSet, explore.TargetBG,
}

// fuzzRunSpan names the span around RunSchedule on each target's runner
// after the module whose automaton it steps.
var fuzzRunSpan = map[string]string{
	explore.TargetCommitAdopt: "commitadopt.run",
	explore.TargetConsensus:   "consensus.run",
	explore.TargetCAChain:     "commitadopt.chain_run",
	explore.TargetKSet:        "kset.run",
	explore.TargetBG:          "bg.run",
}

type fuzzWorkload struct {
	seed   int64
	pooled []explore.PooledBuilder
	// failRun, when positive, makes run failRun of every pooled Run fail its
	// check; the self-test uses it to show that failed runs are counted.
	failRun int
}

func newFuzz(seed int64) (workload, error) {
	w := &fuzzWorkload{seed: seed}
	for _, name := range fuzzTargets {
		b, err := explore.PooledTargetBuilder(name, fuzzN)
		if err != nil {
			return nil, err
		}
		w.pooled = append(w.pooled, w.failing(b))
	}
	return w, nil
}

func (w *fuzzWorkload) injectFailure(run int) { w.failRun = run }

// failing wraps build so that, with failRun set, each Run it builds fails
// the check of its failRun-th schedule.
func (w *fuzzWorkload) failing(build explore.PooledBuilder) explore.PooledBuilder {
	return func() (*explore.Run, error) {
		run, err := build()
		if err != nil || w.failRun <= 0 {
			return run, err
		}
		check, runs := run.Check, 0
		run.Check = func() error {
			if runs++; runs == w.failRun {
				return errors.New("injected failure")
			}
			return check()
		}
		return run, nil
	}
}

func (w *fuzzWorkload) cycle() int { return len(fuzzTargets) }

// inputs returns call i's target, base schedule seed and crash patterns:
// failure-free, and fuzzCrashes patterns in each of which one process
// crashes within the first half of the run.
func (w *fuzzWorkload) inputs(i int) (int, int64, []map[procset.ID]int) {
	base := callSeed(w.seed, i)
	patterns := []map[procset.ID]int{nil}
	for j := 0; j < fuzzCrashes; j++ {
		u := uint64(campaign.SeedFor(base, j))
		crashed := procset.ID(1 + u%fuzzN)
		at := int((u >> 8) % (fuzzSteps / 2))
		patterns = append(patterns, map[procset.ID]int{crashed: at})
	}
	return i % len(fuzzTargets), base, patterns
}

func (w *fuzzWorkload) call(ctx context.Context, i, workers int) (callStats, error) {
	t, base, patterns := w.inputs(i)
	rep, runs, err := explore.FuzzPooledCampaign(ctx, workers, fuzzN, fuzzSteps, fuzzSeeds, base, patterns, w.pooled[t], nil)
	if err := fuzzErr(err); err != nil {
		return callStats{}, err
	}
	return fuzzStats(fuzzTargets[t], rep.Summary, runs), nil
}

// fuzzErr drops the violation a campaign returns alongside its report; the
// report counts it as a violation outcome.
func fuzzErr(err error) error {
	var v *explore.Violation
	if errors.As(err, &v) {
		return nil
	}
	return err
}

// fuzzStats counts a call's runs and its failed runs. A job stops at its
// first violating run and reports it as one "violation" outcome, and the
// campaign then cancels the jobs not yet finished, so each violation
// outcome is exactly one failed run, and runs is every run attempted.
func fuzzStats(target string, s campaign.Summary, runs int) callStats {
	return callStats{
		runs:   int64(runs),
		steps:  int64(runs) * fuzzSteps,
		failed: int64(s.Verdicts["violation"]),
		digest: fmt.Sprintf("%s runs=%d jobs=%d ok=%d verdicts=%v", target, runs, s.Completed, s.Ok, s.Verdicts),
	}
}

// gate replays the first fuzzGateSeeds schedule seeds of the first call of
// each target on the pooled path and on the coroutine path (a fresh
// coroutine run per schedule), and requires identical summaries. That every
// run is ok is counted by the calls themselves.
func (w *fuzzWorkload) gate(ctx context.Context, v *verifier, workers int) error {
	for i := 0; i < w.cycle(); i++ {
		t, base, patterns := w.inputs(i)
		pooled, _, err := explore.FuzzPooledCampaign(ctx, workers, fuzzN, fuzzSteps, fuzzGateSeeds, base, patterns, w.pooled[t], nil)
		if err := fuzzErr(err); err != nil {
			return err
		}
		build, err := explore.TargetBuilder(fuzzTargets[t], fuzzN)
		if err != nil {
			return err
		}
		fresh, _, err := explore.FuzzCampaign(ctx, workers, fuzzN, fuzzSteps, fuzzGateSeeds, base, patterns, build, nil)
		if err := fuzzErr(err); err != nil {
			return err
		}
		v.equal(fmt.Sprintf("fuzz %s call %d: coroutine replay of %d seeds", fuzzTargets[t], i, fuzzGateSeeds), fresh.Summary, pooled.Summary)
	}
	return nil
}

// tracedRun is a pooled explore.Run plus the span of the build that made it,
// until a job adopts that span.
type tracedRun struct {
	*explore.Run
	built int32
}

// traceCall is FuzzPooledCampaign rebuilt from its layers: a runner pool
// over the target's PooledBuilder, batches of runs as campaign jobs, and per
// run sched.Random+Take, Run.Reset+Runner.Reset, Runner.RunSchedule and
// Run.Check.
func (w *fuzzWorkload) traceCall(ctx context.Context, i int, t *tracer) (callStats, error) {
	ti, base, patterns := w.inputs(i)
	target := fuzzTargets[ti]
	runSpan := fuzzRunSpan[target]
	call := t.rec.begin("call", noSpan, noSpan)
	defer t.rec.end(call)

	pool := campaign.NewPool(func() (*tracedRun, error) {
		s := t.rec.begin("explore.build", call, noSpan)
		run, err := w.pooled[ti]()
		t.rec.end(s)
		return &tracedRun{Run: run, built: s}, err
	})
	total := fuzzSeeds * len(patterns)
	batch := fuzzBatch(total)
	var names []string
	for lo := 0; lo < total; lo += batch {
		names = append(names, fmt.Sprintf("batch[%d,%d)", lo, min(lo+batch, total)))
	}
	rep, err := t.campaign(ctx, call, campaign.Config{StopOnFail: true}, names,
		func(ctx context.Context, k int, _ int64, job int32) (campaign.Outcome, error) {
			tr, err := pool.Get()
			if err != nil {
				return campaign.Outcome{}, err
			}
			defer pool.Put(tr)
			if tr.built != noSpan {
				t.rec.reparent(tr.built, job)
				tr.built = noSpan
			}
			runs := 0
			for r := k * batch; r < min((k+1)*batch, total); r++ {
				if ctx.Err() != nil {
					break
				}
				runs++
				id := t.run()
				g := t.rec.begin("sched.gen", job, id)
				src, err := sched.Random(fuzzN, base+int64(r/len(patterns)), patterns[r%len(patterns)])
				if err != nil {
					return campaign.Outcome{}, err
				}
				s := sched.Take(src, fuzzSteps)
				t.rec.end(g)

				rs := t.rec.begin("sim.reset", job, id)
				if tr.Reset != nil {
					tr.Reset()
				}
				err = tr.Runner.Reset()
				t.rec.end(rs)
				if err != nil {
					return campaign.Outcome{}, err
				}

				x := t.rec.begin(runSpan, job, id)
				tr.Runner.RunSchedule(s)
				t.rec.end(x)
				t.ranOn(runSpan, tr.Runner.Stats(), int64(len(s)))

				c := t.rec.begin("check.verify", job, id)
				err = tr.Check()
				t.rec.end(c)
				if err != nil {
					return campaign.Outcome{Verdict: "violation", Steps: runs, Tallies: map[string]int{"runs": runs},
						Detail: &explore.Violation{Schedule: s, Err: err}}, nil
				}
			}
			return campaign.Outcome{Verdict: "ok", Ok: true, Steps: runs, Tallies: map[string]int{"runs": runs}}, nil
		})
	pool.Drain(func(tr *tracedRun) {
		arena := map[string]int64{}
		tr.Runner.RecyclerStats(arena)
		t.update(func(c *counters) {
			c.retired += arena["arena.retired"]
			c.reclaimed += arena["arena.reclaimed"]
		})
		tr.Runner.Close()
	})
	if err != nil {
		return callStats{}, err
	}
	return fuzzStats(target, rep.Summary, rep.Summary.Tallies["runs"]), nil
}

// fuzzBatch mirrors explore's split of a campaign's runs into jobs.
func fuzzBatch(total int) int {
	switch {
	case total <= 64:
		return 1
	case total <= 4096:
		return 64
	default:
		return 256
	}
}

// probe: the fuzz workload's layers are all measured by spans directly.
func (w *fuzzWorkload) probe(context.Context, *tracer, *verifier) error { return nil }
