// Package campaign is a parallel, sharded execution engine for large batches
// of independent simulations. Every empirical surface of the repo — the
// Theorem 27 matrix cells, the explorer's schedule enumeration and fuzzing,
// detector-convergence sweeps, timeliness-relation extraction — reduces to
// the same shape: build a fresh deterministic run from a seed, execute it,
// summarize the outcome. The engine fans a slice of such jobs out across a
// worker pool and folds the outcomes into a streaming aggregate.
//
// Determinism is the contract: per-job seeds are derived from the campaign
// seed with a splitmix64 mix of the job index, results are folded and
// emitted in job-index order regardless of completion order, and the
// aggregate summary is therefore bit-identical for the same (jobs, seed)
// at any worker count. Wall-clock time is the only thing parallelism may
// change.
//
// Jobs must be self-contained: each Run call owns its simulator, schedule
// source, and local state, and must not share mutable state with other jobs.
// The deterministic simulator (internal/sim) is per-Runner isolated, which
// makes this cheap to guarantee.
package campaign

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

// Outcome is the summarized result of one job. The engine tallies Verdict
// strings, folds Tallies by key-wise sum, tracks the Steps distribution, and
// counts Ok versus failed jobs. Detail is carried through to streaming sinks
// and retained failures but not aggregated.
type Outcome struct {
	// Job is the job's index within the campaign; filled by the engine.
	Job int `json:"job"`
	// Name identifies the job for humans; filled from Job.Name by the engine
	// when the job itself leaves it empty.
	Name string `json:"name,omitempty"`
	// Verdict classifies the outcome ("decided", "violation", "stable", ...).
	Verdict string `json:"verdict,omitempty"`
	// Ok reports whether the job met its expectation.
	Ok bool `json:"ok"`
	// Steps is the job's step count (simulation steps, runs — the job's
	// choice of unit), tracked as a distribution across the campaign.
	Steps int `json:"steps"`
	// Tallies holds job-specific counters, merged across the campaign by
	// key-wise sum.
	Tallies map[string]int `json:"tallies,omitempty"`
	// Detail is an optional job-specific payload (e.g. a violating schedule);
	// it reaches sinks and retained failures as-is.
	Detail any `json:"detail,omitempty"`
}

// Job is one independent unit of work. Run must be deterministic given seed
// and must not retain or share mutable state across jobs; it is called at
// most once, from an arbitrary worker goroutine.
type Job struct {
	// Name identifies the job in outcomes and failure reports.
	Name string
	// Run executes the job. A returned error aborts the whole campaign
	// (infrastructure failure); domain-level failure is Outcome.Ok == false.
	Run func(ctx context.Context, seed int64) (Outcome, error)
}

// Config configures a campaign run.
type Config struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// Seed is the campaign master seed; per-job seeds derive from it.
	Seed int64
	// OnResult, if non-nil, receives every completed outcome in job-index
	// order from a single goroutine (safe for writers).
	OnResult func(Outcome)
	// StopOnFail ends the campaign at its smallest failed job (an
	// Ok == false outcome): the jobs below it run to completion, no job
	// above it starts, and outcomes above it fold as skipped. The summary
	// and the OnResult stream cover jobs 0 through that one whatever the
	// workers, processes or resumes.
	StopOnFail bool
}

// keepFailures bounds the failing outcomes a Report retains, smallest job
// indices first.
const keepFailures = 16

// Report is the result of a campaign: the deterministic Summary plus
// execution metadata that may vary run to run (Elapsed, Telemetry's
// wall-clock fields).
type Report struct {
	Summary Summary       `json:"summary"`
	Workers int           `json:"workers"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Failures holds the failing outcomes with the keepFailures smallest
	// job indices, in index order.
	Failures []Outcome `json:"failures,omitempty"`
	// Quarantined lists the poison jobs the coordinator isolated after
	// exhausting their retry budget (coordinated runs only). A non-empty
	// list means the campaign completed degraded, never silently short.
	Quarantined []QuarantineRecord `json:"quarantined,omitempty"`
	// Telemetry is the final progress snapshot (see Heartbeat): the same
	// counters the periodic heartbeats report, taken after the last job
	// folded. Its Seq is the number of periodic heartbeats that fired.
	Telemetry Heartbeat `json:"telemetry"`
}

// SeedFor derives the deterministic seed of job index i from the campaign
// master seed, using the splitmix64 finalizer so neighbouring indices get
// statistically independent streams.
func SeedFor(master int64, i int) int64 {
	z := uint64(master) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

type indexed struct {
	idx         int
	out         Outcome
	skipped     bool
	quarantined bool
}

// Run executes the jobs on the coordinator (coordinator.go) and returns the
// folded report. On a job error the campaign is cancelled and the error of
// the smallest job index is returned alongside the partial report. Context
// cancellation (including StopOnFail) skips not-yet-started jobs; completed
// outcomes are still folded in job-index order, so the aggregate is
// bit-identical at any worker count.
//
// Without Options.Resilience the coordinator runs Config.Workers in-process
// workers with no journal, no lease and no retries: a job may run for any
// length of time and runs exactly once. Options.Resilience adds
// checkpointed, lease-based, self-healing dispatch, in process or over
// child processes, folding to the same aggregate. A worker-serve context
// (WithWorkerServe) instead makes Run serve its job list to a parent
// coordinator over the worker protocol.
func Run(ctx context.Context, cfg Config, jobs []Job) (*Report, error) {
	if srv := serveFrom(ctx); srv != nil {
		return serveWorker(ctx, srv, jobs)
	}
	return runCoordinated(ctx, cfg, resilienceFrom(ctx), jobs)
}

// PanicDetail is the Outcome.Detail payload of a job that panicked: the
// panic value, so a failed-job verdict in a JSONL stream carries its own
// crash context. The goroutine stack names goroutines that differ from run
// to run, so it goes to stderr instead and the stream stays byte-identical.
type PanicDetail struct {
	Message string `json:"message"`
}

// runJob executes one job with panic isolation: a panicking job records a
// failed outcome with verdict "panic" (its message in Detail, its stack on
// the stderr of the process that ran it, which worker children share with
// the coordinator) instead of killing the whole campaign. Infrastructure
// errors returned by the job still abort the run.
func runJob(ctx context.Context, j Job, idx int, seed int64) (out Outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(os.Stderr, "campaign: job %d (%s) panicked: %v\n%s", idx, j.Name, rec, debug.Stack())
			out = Outcome{
				Job:     idx,
				Name:    j.Name,
				Verdict: "panic",
				Ok:      false,
				Detail:  PanicDetail{Message: fmt.Sprint(rec)},
			}
			err = nil
		}
	}()
	out, err = j.Run(ctx, seed)
	out.Job = idx
	if out.Name == "" {
		out.Name = j.Name
	}
	return out, err
}

// folder folds results in job-index order, buffering out-of-order arrivals,
// firing heartbeats at deterministic fold positions (every hb.every folded
// jobs, so their counting fields inherit the fold order's worker-count
// independence), and retaining bounded failures. Fresh, retried and
// journal-resumed outcomes all fold through it, in the coordinator's one
// goroutine.
type folder struct {
	agg      *aggregate
	hb       heartbeatCfg
	hbSeq    int
	pending  map[int]indexed
	emit     int
	onResult func(Outcome)
	jobs     int
	start    time.Time
	failures []Outcome
	// stopOnFail folds every job after the first failed one as skipped;
	// stopped is set once that failure has folded.
	stopOnFail, stopped bool
}

func newFolder(ctx context.Context, cfg Config, jobs int, start time.Time) *folder {
	return &folder{
		agg:        newAggregate(jobs),
		hb:         heartbeatFrom(ctx),
		pending:    make(map[int]indexed),
		onResult:   cfg.OnResult,
		jobs:       jobs,
		start:      start,
		stopOnFail: cfg.StopOnFail,
	}
}

// push buffers one result and folds every newly contiguous index.
func (f *folder) push(r indexed) {
	if r.idx != f.emit {
		f.pending[r.idx] = r
		return
	}
	for ok := true; ok; r, ok = f.pending[f.emit] {
		delete(f.pending, r.idx)
		f.emit++
		switch {
		case r.skipped || f.stopped:
			f.agg.skip()
		case r.quarantined:
			f.agg.quarantine()
		default:
			f.agg.add(r.out)
			if !r.out.Ok && len(f.failures) < keepFailures {
				f.failures = append(f.failures, r.out)
			}
			if f.onResult != nil {
				f.onResult(r.out)
			}
			f.stopped = f.stopOnFail && !r.out.Ok
		}
		if f.hb.fn != nil && f.emit%f.hb.every == 0 {
			f.hbSeq++
			f.hb.fn(f.agg.snapshot(f.hbSeq, f.jobs, f.start))
		}
	}
}

// report assembles the final Report from the folded state.
func (f *folder) report(workers int, quarantined []QuarantineRecord) *Report {
	return &Report{
		Summary:     f.agg.summary(f.jobs),
		Workers:     workers,
		Elapsed:     time.Since(f.start),
		Failures:    f.failures,
		Quarantined: quarantined,
		Telemetry:   f.agg.snapshot(f.hbSeq, f.jobs, f.start),
	}
}

// aggregate folds outcomes incrementally; it retains one int per completed
// job (the Steps sample) and bounded maps, never whole outcomes.
type aggregate struct {
	completed   int
	skipped     int
	quarantined int
	ok          int
	verdicts    map[string]int
	tallies     map[string]int
	steps       []int
	stepsSum    int64 // incremental, so heartbeats never rescan the sample
	// dispatch, when set (coordinated runs), is surfaced on heartbeats; its
	// counters are timing-dependent telemetry, not deterministic aggregate.
	dispatch *DispatchStats
}

func newAggregate(jobs int) *aggregate {
	return &aggregate{verdicts: make(map[string]int), tallies: make(map[string]int), steps: make([]int, 0, jobs)}
}

func (a *aggregate) skip() { a.skipped++ }

func (a *aggregate) quarantine() { a.quarantined++ }

func (a *aggregate) add(o Outcome) {
	a.completed++
	if o.Ok {
		a.ok++
	}
	if o.Verdict != "" {
		a.verdicts[o.Verdict]++
	}
	for k, v := range o.Tallies {
		a.tallies[k] += v
	}
	a.steps = append(a.steps, o.Steps)
	a.stepsSum += int64(o.Steps)
}

func (a *aggregate) summary(jobs int) Summary {
	s := Summary{
		Jobs:        jobs,
		Completed:   a.completed,
		Skipped:     a.skipped,
		Quarantined: a.quarantined,
		Ok:          a.ok,
		Failed:      a.completed - a.ok,
		Verdicts:    a.verdicts,
		Tallies:     a.tallies,
		Steps:       stepStats(a.steps),
	}
	return s
}

// Summary is the deterministic aggregate of a campaign: identical for the
// same jobs and seed at any worker count (when no cancellation occurred).
type Summary struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Skipped   int `json:"skipped,omitempty"`
	// Quarantined counts poison jobs the coordinator isolated; they are
	// neither completed nor ok, so a nonzero value marks a degraded (but
	// explicitly accounted) campaign.
	Quarantined int            `json:"quarantined,omitempty"`
	Ok          int            `json:"ok"`
	Failed      int            `json:"failed"`
	Verdicts    map[string]int `json:"verdicts,omitempty"`
	Tallies     map[string]int `json:"tallies,omitempty"`
	Steps       StepStats      `json:"steps"`
}

// StepStats summarizes the distribution of Outcome.Steps across completed
// jobs. Percentiles are exact (nearest-rank on the sorted sample).
type StepStats struct {
	Min  int     `json:"min"`
	Max  int     `json:"max"`
	Sum  int64   `json:"sum"`
	Mean float64 `json:"mean"`
	P50  int     `json:"p50"`
	P90  int     `json:"p90"`
	P99  int     `json:"p99"`
}

// stepStats sorts sample in place.
func stepStats(sorted []int) StepStats {
	if len(sorted) == 0 {
		return StepStats{}
	}
	sort.Ints(sorted)
	var sum int64
	for _, v := range sorted {
		sum += int64(v)
	}
	rank := func(p float64) int {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return StepStats{
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Sum:  sum,
		Mean: float64(sum) / float64(len(sorted)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
	}
}
