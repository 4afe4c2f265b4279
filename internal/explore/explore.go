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
// The protocols under test are named targets, each defined once in the
// targets table (targets.go) as its coroutine Builder plus its
// direct-dispatch rig. The pooled fuzz and exhaustive paths and the
// Byzantine degradation sweep (byzantine.go) all run that one rig; the
// sweep's check exempts the corrupt processes.
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

// violationJSON is a violation's emitted form: the schedule as text and the
// wrapped error flattened to its message, since marshaling a bare error
// interface yields an empty object.
type violationJSON struct {
	Schedule string `json:"schedule"`
	Err      string `json:"err"`
	Flight   string `json:"flight,omitempty"`
	Trace    string `json:"trace,omitempty"`
}

// MarshalJSON renders the violation for JSONL emission.
func (v *Violation) MarshalJSON() ([]byte, error) {
	return json.Marshal(violationJSON{v.scheduleText(), v.Err.Error(), v.Flight, v.Trace})
}

// UnmarshalJSON rebuilds a violation from its emitted form, so a violation
// recovered from a checkpoint journal (or the worker wire protocol) still
// reports as one. The schedule comes back as text only and the error as its
// message; an object without an error is not a violation.
func (v *Violation) UnmarshalJSON(data []byte) error {
	var w violationJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Err == "" {
		return errors.New("explore: violation without err")
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

// runPooled executes one finite schedule on a recycled Run. Like runOne, it
// copies the schedule into a Violation: the caller's buffer holds the job's
// next run. The violation carries the run's flight tail when a recorder is
// attached.
func runPooled(run *Run, schedule sched.Schedule) error {
	if run.Reset != nil {
		run.Reset()
	}
	if err := run.Runner.Reset(); err != nil {
		return err
	}
	run.Runner.RunSchedule(schedule)
	if err := run.Check(); err != nil {
		return &Violation{Schedule: slices.Clone(schedule), Err: err, Flight: obs.FlightDump(run.Runner)}
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

// batches cuts the runs [0,total) into the cells of one pool, named
// prefix[lo,hi).
func batches(prefix string, total int) []campaign.Cell[struct{}] {
	batch := batchSize(total)
	var cells []campaign.Cell[struct{}]
	for lo := 0; lo < total; lo += batch {
		hi := min(lo+batch, total)
		cells = append(cells, campaign.Cell[struct{}]{Name: fmt.Sprintf("%s[%d,%d)", prefix, lo, hi), Lo: lo, Hi: hi})
	}
	return cells
}

// space enumerates a campaign's schedules by run index, so which schedules
// run is independent of sharding and of the execution path. Each rig calls
// it once for its own nth, which fills one rig-owned buffer: the schedule
// nth returns is valid until its next call.
type space func() (nth func(int) sched.Schedule)

// schedRig is one rig of a schedule campaign: its schedule enumeration and
// its run, which the builder path leaves empty (it builds afresh per
// schedule).
type schedRig struct {
	nth func(int) sched.Schedule
	run *Run
}

// scheduleCampaign runs the schedules [0,total) in batch jobs, each
// schedule through exec on a rig's run from build, and returns the report,
// the runs executed and the violation of the first failed job, if any. A
// job stops at its first violation.
func scheduleCampaign(ctx context.Context, workers, total int, schedules space, build PooledBuilder, exec func(*Run, sched.Schedule) error, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	rep, details, err := campaign.RunSweep(ctx, campaign.Sweep[struct{}, *schedRig, *Violation]{
		Config: campaign.Config{Workers: workers, StopOnFail: true, OnResult: onResult},
		Cells:  batches("batch", total),
		Build: func(struct{}) (*schedRig, error) {
			run, err := build()
			return &schedRig{schedules(), run}, err
		},
		Runner: func(rig *schedRig) *sim.Runner { return rig.run.Runner },
		Run: func(rig *schedRig, out *campaign.Outcome, _ int, _ int64, i int) (bool, error) {
			err := exec(rig.run, rig.nth(i))
			if err == nil {
				return false, nil
			}
			var v *Violation
			if !errors.As(err, &v) {
				return true, err
			}
			out.Verdict, out.Detail = "violation", v
			return true, nil
		},
		Done: func(out *campaign.Outcome, _, runs int) {
			out.Steps, out.Tallies["runs"] = runs, runs
			if out.Verdict == "" {
				out.Verdict, out.Ok = "ok", true
			}
		},
	})
	if err != nil {
		return rep, 0, err
	}
	runs := rep.Summary.Tallies["runs"]
	if len(rep.Failures) > 0 && details[rep.Failures[0].Job] != nil {
		return rep, runs, details[rep.Failures[0].Job]
	}
	return rep, runs, nil
}

// freshRuns stands in for a PooledBuilder on the builder path: its empty
// Run has no runner to record, and exec builds each schedule's own.
func freshRuns() (*Run, error) { return &Run{}, nil }

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
	return scheduleCampaign(ctx, workers, total, schedules, build, runPooled, onResult)
}

// fuzzSpace validates the generators and returns the run count and the
// schedule enumeration: run index r covers schedule seed base+r/len(patterns)
// with crash pattern r%len(patterns). Each pattern is compiled to budgets
// once, and each rig fills its one steps-long buffer from a sched.SeedStream,
// so the runs of one seed filter one shared draw stream; every schedule is
// bit-identical to a fresh Take(Random(n, seed, pattern), steps).
func fuzzSpace(n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int) (int, space, error) {
	if steps < 1 {
		return 0, nil, fmt.Errorf("explore: fuzzing needs at least 1 step per schedule, got %d", steps)
	}
	if len(crashPatterns) == 0 {
		crashPatterns = []map[procset.ID]int{nil}
	}
	// Compiling validates n and every pattern, so no rig's stream can fail.
	budgets := make([]sched.Budgets, len(crashPatterns))
	for i, crashes := range crashPatterns {
		b, err := sched.CompileBudgets(n, crashes)
		if err != nil {
			return 0, nil, err
		}
		budgets[i] = b
	}
	return seeds * len(budgets), func() func(int) sched.Schedule {
		stream, _ := sched.NewSeedStream(n)
		schedule := make(sched.Schedule, steps)
		return func(r int) sched.Schedule {
			stream.Fill(schedule, base+int64(r/len(budgets)), budgets[r%len(budgets)])
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
	exec := func(_ *Run, s sched.Schedule) error { return runOne(n, s, build) }
	return scheduleCampaign(ctx, workers, total, schedules, freshRuns, exec, onResult)
}

// FuzzPooledCampaign is FuzzCampaign on the pooled path: the same schedule
// population executed on per-worker reusable runs. Results are bit-identical
// to the builder path.
func FuzzPooledCampaign(ctx context.Context, workers, n, steps, seeds int, base int64, crashPatterns []map[procset.ID]int, build PooledBuilder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, schedules, err := fuzzSpace(n, steps, seeds, base, crashPatterns)
	if err != nil {
		return nil, 0, err
	}
	return scheduleCampaign(ctx, workers, total, schedules, build, runPooled, onResult)
}
