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
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
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
	// StopOnFail cancels outstanding jobs after the first Ok == false
	// outcome. The summary then covers only the jobs that completed, so it
	// is deterministic only in the all-ok case.
	StopOnFail bool
	// KeepFailures bounds the failing outcomes retained in the report
	// (smallest job indices first); 0 means 16, negative means none.
	KeepFailures int
}

// Report is the result of a campaign: the deterministic Summary plus
// execution metadata that may vary run to run (Elapsed, Telemetry's
// wall-clock fields).
type Report struct {
	Summary  Summary       `json:"summary"`
	Workers  int           `json:"workers"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Failures []Outcome     `json:"failures,omitempty"`
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
	err         error
	skipped     bool
	quarantined bool
}

// Run executes the jobs on a worker pool and returns the folded report. On a
// job error the campaign is cancelled and the error of the smallest job
// index is returned alongside the partial report. Context cancellation
// (including StopOnFail) skips not-yet-started jobs; completed outcomes are
// still folded.
//
// Two context knobs reroute execution without changing results: a
// worker-serve knob (WithWorkerServe) makes Run serve its job list to a
// parent coordinator over the worker protocol, and a resilience knob
// (Options.Resilience) runs the jobs under the fault-tolerant coordinator —
// checkpointed, lease-based, self-healing dispatch. All three paths fold
// outcomes in job-index order, so their aggregates are bit-identical.
func Run(ctx context.Context, cfg Config, jobs []Job) (*Report, error) {
	if srv := serveFrom(ctx); srv != nil {
		return serveWorker(ctx, srv, jobs)
	}
	if res := resilienceFrom(ctx); res != nil {
		return runCoordinated(ctx, cfg, res, jobs)
	}
	start := time.Now()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan indexed, workers)
	var next sync.Mutex
	cursor := 0
	take := func() int {
		next.Lock()
		defer next.Unlock()
		i := cursor
		cursor++
		return i
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i >= len(jobs) {
					return
				}
				if ctx.Err() != nil {
					results <- indexed{idx: i, skipped: true}
					continue
				}
				out, err := runJob(ctx, jobs[i], i, SeedFor(cfg.Seed, i))
				results <- indexed{idx: i, out: out, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Fold in job-index order: buffer out-of-order arrivals and advance a
	// cursor so OnResult and the aggregate see a deterministic sequence.
	// Heartbeats fire from this same goroutine at deterministic fold
	// positions (every hb.every folded jobs), so their counting fields
	// inherit the fold order's worker-count independence.
	f := newFolder(ctx, cfg, len(jobs), start)
	var (
		firstErr error
		errIdx   = -1
	)
	for r := range results {
		if r.err != nil {
			if errIdx < 0 || r.idx < errIdx {
				firstErr, errIdx = r.err, r.idx
			}
			cancel()
			r.skipped = true
		}
		if !r.skipped && cfg.StopOnFail && !r.out.Ok {
			cancel()
		}
		if f.push(r) && cfg.StopOnFail {
			cancel()
		}
	}

	rep := f.report(workers, nil)
	if firstErr != nil {
		return rep, fmt.Errorf("campaign: job %d (%s): %w", errIdx, jobs[errIdx].Name, firstErr)
	}
	return rep, nil
}

// PanicDetail is the Outcome.Detail payload of a job that panicked: the
// panic value plus the goroutine stack, so a failed-job verdict in a JSONL
// stream carries its own crash context.
type PanicDetail struct {
	Message string `json:"message"`
	Stack   string `json:"stack,omitempty"`
}

// runJob executes one job with panic isolation: a panicking job records a
// failed outcome with verdict "panic" (message and stack in Detail) instead
// of killing the whole campaign. Infrastructure errors returned by the job
// still abort the run.
func runJob(ctx context.Context, j Job, idx int, seed int64) (out Outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out = Outcome{
				Job:     idx,
				Name:    j.Name,
				Verdict: "panic",
				Ok:      false,
				Detail:  PanicDetail{Message: fmt.Sprint(rec), Stack: string(debug.Stack())},
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
// firing heartbeats at deterministic fold positions, and retaining bounded
// failures. Both execution paths — the plain pool and the coordinator —
// fold through it, which is what keeps their aggregates bit-identical.
type folder struct {
	agg      *aggregate
	hb       heartbeatCfg
	hbSeq    int
	pending  map[int]indexed
	emit     int
	keep     int
	onResult func(Outcome)
	jobs     int
	start    time.Time
	failures []Outcome
}

func newFolder(ctx context.Context, cfg Config, jobs int, start time.Time) *folder {
	keep := cfg.KeepFailures
	if keep == 0 {
		keep = 16
	}
	return &folder{
		agg:      newAggregate(),
		hb:       heartbeatFrom(ctx),
		pending:  make(map[int]indexed),
		keep:     keep,
		onResult: cfg.OnResult,
		jobs:     jobs,
		start:    start,
	}
}

// push buffers one result and folds every newly contiguous index. It
// reports whether any newly folded outcome failed (for StopOnFail).
func (f *folder) push(r indexed) (sawFail bool) {
	f.pending[r.idx] = r
	for {
		nr, ok := f.pending[f.emit]
		if !ok {
			return sawFail
		}
		delete(f.pending, f.emit)
		f.emit++
		switch {
		case nr.quarantined:
			f.agg.quarantine()
		case nr.skipped:
			f.agg.skip()
		default:
			f.agg.add(nr.out)
			if !nr.out.Ok {
				sawFail = true
				if len(f.failures) < f.keep {
					f.failures = append(f.failures, nr.out)
				}
			}
			if f.onResult != nil {
				f.onResult(nr.out)
			}
		}
		if f.hb.fn != nil && f.emit%f.hb.every == 0 {
			f.hbSeq++
			f.hb.fn(f.agg.snapshot(f.hbSeq, f.jobs, f.start))
		}
	}
}

// folded reports how many indices have been folded so far.
func (f *folder) folded() int { return f.emit }

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

func newAggregate() *aggregate {
	return &aggregate{verdicts: make(map[string]int), tallies: make(map[string]int)}
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

func stepStats(sample []int) StepStats {
	if len(sample) == 0 {
		return StepStats{}
	}
	sorted := make([]int, len(sample))
	copy(sorted, sample)
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
