// Package explore provides systematic schedule exploration for safety
// properties: exhaustive enumeration of all schedules up to a depth bound
// (feasible for 2–3 processes — the configurations the paper's impossibility
// arguments care about most), and high-volume seeded random fuzzing for
// larger systems.
//
// Two execution paths produce bit-identical results:
//
//   - the builder path (Builder) constructs a fresh coroutine run per
//     schedule — simple, and the form the mutation tests are written in;
//   - the pooled path (PooledBuilder) keeps one reusable run per campaign
//     worker — typically a direct-dispatch Machine run — and replays it via
//     Runner.Reset, avoiding goroutine and allocation churn per schedule.
//     This is the default path of cmd/stm-campaign.
//
// The package's own tests double as mutation tests: deliberately broken
// protocol variants must be caught, which validates that the explorer (and
// the property checkers it applies) can actually see violations.
package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Builder creates one fresh run: the per-process algorithm (with fresh
// captured state) and a check applied after the schedule has been executed.
// check returns an error describing the violation, if any.
//
// Campaign entry points call the builder from multiple worker goroutines
// concurrently; each call must return state shared with nothing outside
// that one run.
type Builder func() (algo func(procset.ID) sim.Algorithm, check func() error)

// Run is one reusable run instance for the pooled execution path: a runner
// plus the hooks that restore and inspect its harness-side state. Between
// schedules the explorer calls Reset (harness state) and Runner.Reset
// (simulator state), so a recycled Run replays exactly like a fresh one.
type Run struct {
	// Runner executes the schedules. The explorer owns stepping and Reset;
	// the builder owns Close (via the pool's drain).
	Runner *sim.Runner
	// Reset restores the harness-side result slots before each schedule.
	// May be nil when the check reads only simulator state.
	Reset func()
	// Check inspects the outcome after a schedule, returning an error
	// describing the violation, if any.
	Check func() error
}

// PooledBuilder creates a reusable Run. The campaign pool invokes it at
// most once per concurrently running worker; each Run then serves many
// schedules.
type PooledBuilder func() (*Run, error)

// Violation describes a schedule on which the check failed.
type Violation struct {
	Schedule sched.Schedule
	Err      error
	// scheduleStr preserves the schedule's rendering across a JSON round
	// trip (checkpoint journals, the worker wire protocol); the structured
	// Schedule does not survive marshaling.
	scheduleStr string
	// Flight, when non-empty, is the formatted tail of the failing run from
	// an attached flight recorder (see internal/obs): the last K executed
	// steps with process, op kind, and register resolved. Directed runs have
	// no replayable Schedule, so this is their failure context.
	Flight string
	// Trace, when non-empty, is the corrupting-write trace of a Byzantine
	// run: which writes were mutated, by whom, into what (see
	// adversary.Byzantine.FormatTrace).
	Trace string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("explore: violated on schedule %v: %v", v.scheduleText(), v.Err)
}

func (v *Violation) scheduleText() string {
	if len(v.Schedule) > 0 || v.scheduleStr == "" {
		return v.Schedule.String()
	}
	return v.scheduleStr
}

// MarshalJSON renders the violation for JSONL emission; the wrapped error
// must be flattened to its message, since marshaling a bare error interface
// yields an empty object.
func (v *Violation) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Schedule string `json:"schedule"`
		Err      string `json:"err"`
		Flight   string `json:"flight,omitempty"`
		Trace    string `json:"trace,omitempty"`
	}{v.scheduleText(), v.Err.Error(), v.Flight, v.Trace})
}

// UnmarshalJSON rebuilds a violation from its emitted form, so a violation
// recovered from a checkpoint journal (or the worker wire protocol) still
// reports as one. The schedule comes back as text only and the error as its
// message.
func (v *Violation) UnmarshalJSON(data []byte) error {
	var w struct {
		Schedule string `json:"schedule"`
		Err      string `json:"err"`
		Flight   string `json:"flight,omitempty"`
		Trace    string `json:"trace,omitempty"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*v = Violation{Err: errors.New(w.Err), Flight: w.Flight, Trace: w.Trace, scheduleStr: w.Schedule}
	return nil
}

// runOne executes one finite schedule from a fresh build and applies the
// check.
func runOne(n int, schedule sched.Schedule, build Builder) error {
	algo, check := build()
	runner, err := sim.NewRunner(sim.Config{N: n, Algorithm: algo})
	if err != nil {
		return err
	}
	defer runner.Close()
	runner.RunSchedule(schedule)
	if err := check(); err != nil {
		return &Violation{Schedule: slices.Clone(schedule), Err: err}
	}
	return nil
}

// runPooled executes one finite schedule on a recycled Run. A panic inside
// the run is re-raised with the flight recorder's tail attached (when one is
// enabled), so the campaign engine's panic isolation captures the last
// executed steps alongside the stack. Like runOne, it copies the schedule
// into a Violation: the caller's buffer holds the job's next run.
func runPooled(run *Run, schedule sched.Schedule) error {
	defer func() {
		if rec := recover(); rec != nil {
			if dump := obs.FlightDump(run.Runner); dump != "" {
				panic(fmt.Sprintf("%v\nflight recorder tail:\n%s", rec, dump))
			}
			panic(rec)
		}
	}()
	if run.Reset != nil {
		run.Reset()
	}
	if err := run.Runner.Reset(); err != nil {
		return err
	}
	run.Runner.RunSchedule(schedule)
	if err := run.Check(); err != nil {
		return &Violation{Schedule: slices.Clone(schedule), Err: err}
	}
	return nil
}

// batchSize splits total runs into campaign jobs: small enough to shard
// across workers, large enough that per-job overhead stays negligible.
func batchSize(total int) int {
	switch {
	case total <= 64:
		return 1
	case total <= 4096:
		return 64
	default:
		return 256
	}
}

// executor runs one schedule, returning a *Violation (or an infrastructure
// error); acquire hands a job an executor plus its release hook.
type executor func(s sched.Schedule) error

type acquireFunc func() (exec executor, release func(), err error)

// space enumerates a campaign's schedules by run index, so which schedules
// run is independent of sharding and of the execution path. Each job calls
// it once for its own nth, which fills one job-owned buffer: the schedule
// nth returns is valid until its next call.
type space func() (nth func(int) sched.Schedule)

// runCampaign builds one job per batch of [0,total) and runs them on the
// engine, returning the report and the violation of the smallest run index
// found, if any. Each job acquires its executor and its enumerator once and
// runs its whole batch on them, stopping at the first violation.
func runCampaign(ctx context.Context, workers, total int, schedules space, acquire acquireFunc, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	batch := batchSize(total)
	var jobs []campaign.Job
	for lo := 0; lo < total; lo += batch {
		lo, hi := lo, lo+batch
		if hi > total {
			hi = total
		}
		jobs = append(jobs, campaign.Job{
			Name: fmt.Sprintf("batch[%d,%d)", lo, hi),
			Run: func(ctx context.Context, _ int64) (campaign.Outcome, error) {
				exec, release, err := acquire()
				if err != nil {
					return campaign.Outcome{}, err
				}
				defer release()
				nth := schedules()
				runs := 0
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						break
					}
					runs++
					if err := exec(nth(i)); err != nil {
						var v *Violation
						if errors.As(err, &v) {
							return campaign.Outcome{
								Verdict: "violation",
								Ok:      false,
								Steps:   runs,
								Tallies: map[string]int{"runs": runs},
								Detail:  v,
							}, nil
						}
						return campaign.Outcome{}, err
					}
				}
				return campaign.Outcome{
					Verdict: "ok",
					Ok:      true,
					Steps:   runs,
					Tallies: map[string]int{"runs": runs},
				}, nil
			},
		})
	}
	rep, err := campaign.Run(ctx, campaign.Config{Workers: workers, StopOnFail: true, OnResult: onResult}, jobs)
	if err != nil {
		return rep, 0, err
	}
	runs := rep.Summary.Tallies["runs"]
	if len(rep.Failures) > 0 {
		if v, ok := campaign.DecodeDetail[*Violation](rep.Failures[0].Detail); ok && v != nil {
			return rep, runs, v
		}
	}
	return rep, runs, nil
}

// freshAcquire wraps the builder path: every schedule gets a fresh build.
func freshAcquire(n int, build Builder) acquireFunc {
	return func() (executor, func(), error) {
		return func(s sched.Schedule) error { return runOne(n, s, build) }, func() {}, nil
	}
}

// pooledCampaign wraps runCampaign with a runner pool over build, draining
// (closing) the pooled runners when the campaign finishes.
func pooledCampaign(ctx context.Context, workers, total int, schedules space, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	pool := campaign.NewPool(func() (*Run, error) { return build() })
	defer pool.Drain(func(r *Run) { r.Runner.Close() })
	acquire := func() (executor, func(), error) {
		run, err := pool.Get()
		if err != nil {
			return nil, nil, err
		}
		return func(s sched.Schedule) error { return runPooled(run, s) },
			func() { pool.Put(run) }, nil
	}
	return runCampaign(ctx, workers, total, schedules, acquire, onResult)
}

// exhaustiveSpace validates the (n, depth) bounds and returns the run count
// and the fixed schedule enumeration: run r's step i is digit i of r in
// base n.
func exhaustiveSpace(n, depth int) (int, space, error) {
	if n < 1 || n > 4 {
		return 0, nil, fmt.Errorf("explore: exhaustive enumeration supports 1 ≤ n ≤ 4, got %d", n)
	}
	if depth < 1 || depth > 24 {
		return 0, nil, fmt.Errorf("explore: depth %d out of range [1,24]", depth)
	}
	total := 1
	for i := 0; i < depth; i++ {
		total *= n
	}
	return total, func() func(int) sched.Schedule {
		schedule := make(sched.Schedule, depth)
		return func(r int) sched.Schedule {
			for i := range schedule {
				schedule[i] = procset.ID(r%n + 1)
				r /= n
			}
			return schedule
		}
	}, nil
}

// ExhaustivePooledCampaign shards the full n^depth enumeration across
// workers (0 means GOMAXPROCS) on per-worker reusable runs. It is the
// ground truth ExhaustiveReduced is checked against. When a violation
// exists the reported one is the violation of the smallest run index found
// before cancellation, which may differ from the sequential first under
// parallelism.
func ExhaustivePooledCampaign(ctx context.Context, workers, n, depth int, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, schedules, err := exhaustiveSpace(n, depth)
	if err != nil {
		return nil, 0, err
	}
	return pooledCampaign(ctx, workers, total, schedules, build, onResult)
}

// fuzzSpace validates the generators and returns the run count and the
// schedule enumeration: run index r covers schedule seed base+r/len(patterns)
// with crash pattern r%len(patterns). A job reseeds one source per run and
// fills one steps-long buffer, bit-identical to a fresh
// Take(Random(n, seed, pattern), steps).
func fuzzSpace(n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int) (int, space, error) {
	if steps < 1 {
		return 0, nil, fmt.Errorf("explore: fuzzing needs at least 1 step per schedule, got %d", steps)
	}
	if len(crashPatterns) == 0 {
		crashPatterns = []map[procset.ID]int{nil}
	}
	// Validate once up front so job workers cannot hit generator errors.
	if _, err := sched.Random(n, base, nil); err != nil {
		return 0, nil, err
	}
	for _, crashes := range crashPatterns {
		if _, err := sched.Random(n, base, crashes); err != nil {
			return 0, nil, err
		}
	}
	return seeds * len(crashPatterns), func() func(int) sched.Schedule {
		// n and every crash pattern were validated above, so neither the
		// generator nor its reseed can fail here.
		src, _ := sched.Random(n, base, nil)
		schedule := make(sched.Schedule, steps)
		return func(r int) sched.Schedule {
			if err := src.Reseed(base+int64(r/len(crashPatterns)), crashPatterns[r%len(crashPatterns)]); err != nil {
				panic(err)
			}
			src.NextBlock(schedule)
			return schedule
		}
	}, nil
}

// FuzzCampaign shards seeded random fuzzing across workers (0 means
// GOMAXPROCS) on the builder path.
func FuzzCampaign(ctx context.Context, workers, n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int, build Builder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, schedules, err := fuzzSpace(n, steps, seeds, base, crashPatterns)
	if err != nil {
		return nil, 0, err
	}
	return runCampaign(ctx, workers, total, schedules, freshAcquire(n, build), onResult)
}

// FuzzPooledCampaign is FuzzCampaign on the pooled path: the same schedule
// population executed on per-worker reusable runs. Results are bit-identical
// to the builder path.
func FuzzPooledCampaign(ctx context.Context, workers, n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, schedules, err := fuzzSpace(n, steps, seeds, base, crashPatterns)
	if err != nil {
		return nil, 0, err
	}
	return pooledCampaign(ctx, workers, total, schedules, build, onResult)
}
