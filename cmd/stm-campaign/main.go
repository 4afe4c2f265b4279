// stm-campaign runs named simulation campaigns — large batches of
// independent deterministic runs sharded across a worker pool
// (internal/campaign). The same seed produces a bit-identical summary at any
// worker count; only wall-clock time changes.
//
//	stm-campaign matrix -t 2 -k 2 -n 4                 empirical Theorem 27 matrix
//	stm-campaign matrix -t 1:2 -k 1:2 -n 4:5           sweep over (t,k,n) ranges
//	stm-campaign fuzz -target commitadopt -schedules 10000
//	stm-campaign converge -n 4 -k 2 -t 2 -trials 64
//	stm-campaign relations -n 4 -schedules 200
//
// Global-ish flags on every subcommand: -workers (0 = GOMAXPROCS), -seed,
// -json (machine-readable summary on stdout), -jsonl FILE (stream one JSON
// record per job). Resilience flags (-checkpoint, -resume, -procs, -chaos,
// -lease, -retries) route the run through the fault-tolerant coordinator:
// checkpointed, lease-based dispatch that survives worker crashes and hangs
// and resumes after coordinator death with a bit-identical aggregate.
//
// Exit codes: 0 clean; 1 error or property violation; 2 usage; 3 completed
// degraded (quarantined jobs — reported, never silent); 4 interrupted with a
// usable checkpoint (the exact -resume invocation is printed on stderr).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/faultinject"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/trace"
)

// Exit codes (documented in usage; asserted by the CI chaos job).
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitDegraded    = 3
	exitInterrupted = 4
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	if os.Getenv(campaign.EnvWorker) == "1" {
		// This process is a child of a coordinating stm-campaign: same
		// subcommand, same arguments, but campaign.Run serves the job list
		// over stdin/stdout instead of executing the campaign.
		runWorker()
		return
	}
	// SIGINT/SIGTERM cancel the context instead of killing the process: the
	// campaign engine skips not-yet-started jobs, completed outcomes are
	// still folded, and the partial summary is printed before exiting
	// nonzero. With -checkpoint, the coordinator additionally writes a final
	// checkpoint and the exact resume invocation is printed. A second signal
	// kills the process (NotifyContext restores default handling once the
	// context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err, known := dispatch(ctx, os.Args[1], os.Args[2:], os.Stdout)
	if !known {
		usage()
		os.Exit(exitUsage)
	}
	if ctx.Err() != nil && err == nil {
		err = fmt.Errorf("interrupted; partial results above")
	}
	var ie *campaign.InterruptedError
	var de *degradedError
	switch {
	case err == nil:
	case errors.As(err, &ie):
		fmt.Fprintf(os.Stderr, "stm-campaign: %v\n", err)
		fmt.Fprintf(os.Stderr, "stm-campaign: resume with: %s\n", resumeCommand())
		os.Exit(exitInterrupted)
	case errors.As(err, &de):
		fmt.Fprintf(os.Stderr, "stm-campaign: %v\n", err)
		os.Exit(exitDegraded)
	default:
		fmt.Fprintf(os.Stderr, "stm-campaign: %v\n", err)
		os.Exit(exitError)
	}
}

// dispatch routes a subcommand; known reports whether the name was one.
func dispatch(ctx context.Context, sub string, args []string, w io.Writer) (err error, known bool) {
	switch sub {
	case "matrix":
		return cmdMatrix(ctx, args, w), true
	case "fuzz":
		return cmdFuzz(ctx, args, w), true
	case "exhaustive":
		return cmdExhaustive(ctx, args, w), true
	case "converge":
		return cmdConverge(ctx, args, w), true
	case "relations":
		return cmdRelations(ctx, args, w), true
	case "adversarial":
		return cmdAdversarial(ctx, args, w), true
	case "byzantine":
		return cmdByzantine(ctx, args, w), true
	case "netconv":
		return cmdNetConv(ctx, args, w), true
	case "monitor":
		return cmdMonitor(ctx, args, w), true
	}
	return nil, false
}

// runWorker is the worker-process entry: rebuild the same campaign the
// coordinator holds by running the identical subcommand code path, with
// campaign.Run rerouted into serve mode. Human output is discarded;
// parent-only side effects (sink files, checkpoints, debug servers) are
// disabled by the ServingWorker gates in the shared helpers.
func runWorker() {
	ctx := campaign.WithWorkerServe(context.Background(), os.Stdin, os.Stdout)
	err, known := dispatch(ctx, os.Args[1], os.Args[2:], io.Discard)
	if !known {
		fmt.Fprintf(os.Stderr, "stm-campaign worker: unknown subcommand %q\n", os.Args[1])
		os.Exit(exitError)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stm-campaign worker: %v\n", err)
		os.Exit(exitError)
	}
	os.Exit(exitOK)
}

// resumeCommand reconstructs this invocation with -resume appended, for the
// interrupted-with-checkpoint hint.
func resumeCommand() string {
	for _, a := range os.Args[1:] {
		if a == "-resume" || a == "--resume" || a == "-resume=true" || a == "--resume=true" {
			return strings.Join(os.Args, " ")
		}
	}
	return strings.Join(os.Args, " ") + " -resume"
}

// degradedError marks a campaign that completed but quarantined poison jobs:
// every healthy job is accounted for, the gaps are listed, and the exit code
// says degraded.
type degradedError struct {
	records []campaign.QuarantineRecord
}

func (e *degradedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign completed degraded: %d job(s) quarantined after exhausting retries:", len(e.records))
	for _, q := range e.records {
		fmt.Fprintf(&b, "\n  job %d (%s): %d attempts, last error: %s", q.Job, q.Name, q.Attempts, q.LastErr)
	}
	return b.String()
}

// checkDegraded converts a quarantined-but-completed report into the
// degraded exit path. Call only after the happy-path summary was emitted.
func checkDegraded(rep *campaign.Report) error {
	if rep != nil && len(rep.Quarantined) > 0 {
		return &degradedError{records: rep.Quarantined}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  stm-campaign matrix    -t T -k K -n N [-posbudget B] [-negbudget B]   empirical Theorem 27 matrices
  stm-campaign fuzz      -target commitadopt|consensus|cachain|kset|bg -schedules S  schedule fuzzing
  stm-campaign exhaustive -target T -n N -depth D [-reduce=false]      every schedule up to depth D (partial-order reduced by default)
  stm-campaign converge  -n N -k K -t T -trials R                       detector-convergence sweep
  stm-campaign relations -n N -schedules S [-gen random|starver|mixed]  timeliness-relation extraction
  stm-campaign adversarial -n N -runs R [-steps S]                      parking adversary vs the Theorem 24 solver
  stm-campaign byzantine -target T -n N [-crash LO:HI] [-byz LO:HI] [-strategies flip,stale,split] [-runs R] [-steps S]  Byzantine degradation matrix
  stm-campaign netconv   -n N [-matrices sync,psync,async,mixed] [-runs R] [-steps S] [-delta D] [-gst G] [-probe P]  detector convergence over graded link matrices
  stm-campaign monitor   -n N -steps S [-every E] [-gen random|starver|mixed]  online timeliness-graph monitoring
T, K, N accept single values ("2") or inclusive ranges ("1:3").
Common flags: -workers W (0 = GOMAXPROCS), -seed S, -json, -jsonl FILE,
-progress N (heartbeat to stderr every N jobs), -pprof ADDR (pprof+expvar),
-flight K (flight-recorder depth on campaigns with pooled runners).
Resilience flags (campaign subcommands; routes through the fault-tolerant
coordinator — the aggregate stays bit-identical to a plain run):
  -checkpoint FILE   journal completed jobs; interrupted runs leave a usable checkpoint
  -resume            skip jobs already in the -checkpoint journal
  -procs P           dispatch to P child worker processes (crash-isolated) instead of goroutines
  -lease D           per-attempt deadline before a hung job is requeued (default 1m)
  -retries R         re-leases before a poison job is quarantined (default 3)
  -chaos PLAN        deterministic fault injection; PLAN is ';'-separated directives:
                       kill@N            worker exits when handed its (N+1)-th job
                       stall@J~D         job J hangs D past its lease on the first attempt
                       delay@J~D         job J's result is delayed by D on the first attempt
                       (J is a job index or pP for probability P per job, e.g. p0.05)
                       crash@N | trunc@N | corrupt@N   coordinator dies after N journal
                       appends, leaving a clean, truncated, or corrupted tail
SIGINT/SIGTERM print the partial summary; with -checkpoint the exact resume
invocation is printed on stderr.
Exit codes: 0 clean; 1 error or property violation; 2 usage; 3 completed
degraded (quarantined jobs); 4 interrupted with a usable checkpoint.`)
}

// common holds the flags every campaign shares.
type common struct {
	workers   int
	seed      int64
	jsonOut   bool
	jsonlOut  string
	progress  int
	pprofAddr string
	flight    int

	// Resilience flags (fault-tolerant coordinator).
	checkpoint string
	resume     bool
	procs      int
	chaos      string
	lease      time.Duration
	retries    int
}

func (c *common) register(fs *flag.FlagSet) {
	fs.IntVar(&c.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.Int64Var(&c.seed, "seed", 1, "campaign master seed")
	fs.BoolVar(&c.jsonOut, "json", false, "emit a machine-readable JSON summary on stdout")
	fs.StringVar(&c.jsonlOut, "jsonl", "", "stream one JSON record per job to this file")
	fs.IntVar(&c.progress, "progress", 0, "emit a JSONL heartbeat to stderr every N completed jobs (0 = off)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve pprof and expvar debug endpoints on this address (e.g. localhost:6060)")
	fs.IntVar(&c.flight, "flight", 0, "per-runner flight recorder depth, dumped on violation or panic (0 = off; honored by campaigns with pooled runners)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "journal completed jobs to this file; interrupted runs resume from it")
	fs.BoolVar(&c.resume, "resume", false, "resume from the -checkpoint journal, skipping completed jobs (aggregate stays bit-identical)")
	fs.IntVar(&c.procs, "procs", 0, "dispatch jobs to this many child worker processes instead of in-process goroutines")
	fs.StringVar(&c.chaos, "chaos", "", `deterministic fault plan, e.g. "kill@3;stall@p0.05~300ms;trunc@7" (see usage)`)
	fs.DurationVar(&c.lease, "lease", 0, "per-attempt deadline before a job is requeued as hung (0 = 1m)")
	fs.IntVar(&c.retries, "retries", 0, "re-leases per job before quarantine (0 = 3, negative = none)")
}

// session bundles the context ceremony every subcommand used to repeat:
// begin applies coordinator resilience, instrumentation, and the
// flight-recorder knob in the canonical order; openSink opens the -jsonl
// stream (call it after validating inputs, so a bad invocation never leaves
// a stream file behind); finish folds the sink's close error into the
// campaign's; close stops instrumentation.
type session struct {
	ctx       context.Context
	c         *common
	cleanup   func()
	sink      func(campaign.Outcome)
	closeSink func() error
}

// begin starts a session for the named subcommand: it folds every common
// context knob into one campaign.Options and applies it with a single
// campaign.WithOptions call. name, args, and params feed the resilience
// layer's checkpoint identity and worker respawn.
func (c *common) begin(ctx context.Context, name string, args []string, params map[string]any) (*session, error) {
	o := campaign.Options{Flight: c.flight}
	cleanup := func() {}
	// Resilience and instrumentation belong to the coordinating parent; a
	// worker process (serve knob already installed) only carries the
	// flight-recorder request.
	if !campaign.ServingWorker(ctx) {
		res, err := c.resilienceOptions(name, args, params)
		if err != nil {
			return nil, err
		}
		o.Resilience = res
		if cleanup, err = c.instrument(&o); err != nil {
			cleanup()
			return nil, err
		}
	}
	ctx = campaign.WithOptions(ctx, o)
	return &session{ctx: ctx, c: c, cleanup: cleanup, closeSink: func() error { return nil }}, nil
}

// openSink opens the -jsonl stream and arms finish with its close error.
func (s *session) openSink() error {
	sink, closeSink, err := s.c.sink(s.ctx)
	if err != nil {
		return err
	}
	s.sink, s.closeSink = sink, closeSink
	return nil
}

// finish closes the sink, folding its error into err when err is nil.
func (s *session) finish(err error) error {
	if cerr := s.closeSink(); err == nil {
		err = cerr
	}
	s.closeSink = func() error { return nil }
	return err
}

// close stops instrumentation (deferred by every caller).
func (s *session) close() { s.cleanup() }

// resilienceRequested reports whether any coordinator flag was set.
func (c *common) resilienceRequested() bool {
	return c.checkpoint != "" || c.resume || c.procs != 0 || c.chaos != "" || c.lease != 0 || c.retries != 0
}

// resilienceOptions builds the fault-tolerant coordinator config when any
// of its flags are set (nil otherwise). name and args are the subcommand and
// its raw argument list: name + canonical params identify the campaign in
// the checkpoint header, and the same argv respawned under EnvWorker is how
// child processes rebuild the identical job list.
func (c *common) resilienceOptions(name string, args []string, params map[string]any) (*campaign.Resilience, error) {
	if !c.resilienceRequested() {
		return nil, nil
	}
	if c.resume && c.checkpoint == "" {
		return nil, fmt.Errorf("-resume needs -checkpoint")
	}
	plan, err := faultinject.Cached(c.chaos)
	if err != nil {
		return nil, err
	}
	canon, err := json.Marshal(params) // map keys encode sorted: canonical
	if err != nil {
		return nil, fmt.Errorf("canonicalizing %s params: %v", name, err)
	}
	res := &campaign.Resilience{
		Checkpoint: c.checkpoint,
		Resume:     c.resume,
		Spec:       campaign.Spec{Kind: name, Params: string(canon), Seed: c.seed},
		Procs:      c.procs,
		Lease:      c.lease,
		Retries:    c.retries,
		Chaos:      plan.Injector(c.seed),
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "stm-campaign: "+format+"\n", a...)
		},
	}
	if c.procs > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("-procs: resolving worker binary: %v", err)
		}
		res.WorkerArgv = append([]string{exe, name}, args...)
	}
	return res, nil
}

// instrument applies the observability flags onto o: -progress installs a
// campaign heartbeat streaming JSONL to stderr, and -pprof starts the debug
// HTTP server (pprof + expvar), publishing the latest heartbeat as the
// "campaign" expvar. The cleanup function stops the debug server.
func (c *common) instrument(o *campaign.Options) (func(), error) {
	var last atomic.Pointer[campaign.Heartbeat]
	every := c.progress
	if every <= 0 && c.pprofAddr != "" {
		// No -progress cadence requested, but the expvar should stay fresh.
		every = 1
	}
	if every > 0 {
		enc := json.NewEncoder(os.Stderr)
		o.HeartbeatEvery = every
		o.Heartbeat = func(hb campaign.Heartbeat) {
			last.Store(&hb)
			if c.progress > 0 {
				_ = enc.Encode(hb) // best-effort telemetry: a broken stderr must not kill the run
			}
		}
	}
	cleanup := func() {}
	if c.pprofAddr != "" {
		obs.Publish("campaign", func() any {
			hb := last.Load()
			if hb == nil {
				return nil
			}
			return *hb
		})
		ds, err := obs.ServeDebug(c.pprofAddr)
		if err != nil {
			return cleanup, err
		}
		fmt.Fprintf(os.Stderr, "stm-campaign: debug endpoints on http://%s/debug/\n", ds.Addr())
		cleanup = func() { ds.Close() }
	}
	return cleanup, nil
}

// sink opens the -jsonl stream; the returned close function also surfaces
// encoding errors observed during the run. Worker processes skip it — they
// inherit the parent's -jsonl flag but must not clobber the parent's file.
func (c *common) sink(ctx context.Context) (func(campaign.Outcome), func() error, error) {
	if c.jsonlOut == "" || campaign.ServingWorker(ctx) {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(c.jsonlOut)
	if err != nil {
		return nil, nil, err
	}
	sink, sinkErr := campaign.JSONLSink(f)
	closeFn := func() error {
		if err := f.Close(); err != nil {
			return err
		}
		return *sinkErr
	}
	return sink, closeFn, nil
}

// record is the -json summary envelope shared by all subcommands.
type record struct {
	Campaign  string           `json:"campaign"`
	Params    map[string]any   `json:"params"`
	Seed      int64            `json:"seed"`
	Workers   int              `json:"workers"`
	ElapsedNS int64            `json:"elapsed_ns"`
	Summary   campaign.Summary `json:"summary"`
}

func emit(w io.Writer, c common, name string, params map[string]any, rep *campaign.Report) error {
	if c.jsonOut {
		enc := json.NewEncoder(w)
		return enc.Encode(record{
			Campaign:  name,
			Params:    params,
			Seed:      c.seed,
			Workers:   rep.Workers,
			ElapsedNS: int64(rep.Elapsed),
			Summary:   rep.Summary,
		})
	}
	s := rep.Summary
	fmt.Fprintf(w, "campaign %s: %d jobs, %d completed, %d ok, %d failed (workers=%d, %.3fs)\n",
		name, s.Jobs, s.Completed, s.Ok, s.Failed, rep.Workers, rep.Elapsed.Seconds())
	if len(s.Verdicts) > 0 {
		fmt.Fprintf(w, "verdicts: %v\n", s.Verdicts)
	}
	if s.Completed > 0 {
		fmt.Fprintf(w, "steps: min=%d p50=%d p90=%d p99=%d max=%d mean=%.1f\n",
			s.Steps.Min, s.Steps.P50, s.Steps.P90, s.Steps.P99, s.Steps.Max, s.Steps.Mean)
	}
	return nil
}

// parseRange parses "2" or "1:3" into an inclusive [lo, hi].
func parseRange(text string) (int, int, error) {
	lo, hi, found := strings.Cut(text, ":")
	l, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %v", text, err)
	}
	if !found {
		return l, l, nil
	}
	h, err := strconv.Atoi(strings.TrimSpace(hi))
	if err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %v", text, err)
	}
	if h < l {
		return 0, 0, fmt.Errorf("bad range %q: empty", text)
	}
	return l, h, nil
}

func cmdMatrix(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	var c common
	c.register(fs)
	tRange := fs.String("t", "2", "resilience t (value or lo:hi range)")
	kRange := fs.String("k", "2", "agreement parameter k (value or range)")
	nRange := fs.String("n", "4", "system size n (value or range)")
	posBudget := fs.Int("posbudget", 3_000_000, "step budget for solvable cells")
	negBudget := fs.Int("negbudget", 300_000, "step horizon for unsolvable cells")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0, t1, err := parseRange(*tRange)
	if err != nil {
		return err
	}
	k0, k1, err := parseRange(*kRange)
	if err != nil {
		return err
	}
	n0, n1, err := parseRange(*nRange)
	if err != nil {
		return err
	}
	var problems []core.Problem
	for n := n0; n <= n1; n++ {
		for t := t0; t <= t1; t++ {
			for k := k0; k <= k1; k++ {
				p := core.Problem{T: t, K: k, N: n}
				if p.Validate() == nil {
					problems = append(problems, p)
				}
			}
		}
	}
	if len(problems) == 0 {
		return fmt.Errorf("no valid (t,k,n) problems in t=%s k=%s n=%s", *tRange, *kRange, *nRange)
	}
	params := map[string]any{
		"t": *tRange, "k": *kRange, "n": *nRange,
		"posbudget": *posBudget, "negbudget": *negBudget,
		"problems": len(problems),
	}
	s, err := c.begin(ctx, "matrix", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.openSink(); err != nil {
		return err
	}
	cells, rep, err := experiments.MatrixSweep(s.ctx, problems, c.seed, *posBudget, *negBudget, c.workers, s.sink)
	if err = s.finish(err); err != nil {
		return err
	}
	if !c.jsonOut {
		var tb *trace.Table
		var last core.Problem
		for _, cell := range cells {
			if tb == nil || cell.Problem != last {
				if tb != nil {
					fmt.Fprintln(w, tb.Render())
				}
				last = cell.Problem
				tb = trace.NewTable(fmt.Sprintf("Theorem 27 matrix for %v", cell.Problem),
					"i", "j", "theory", "empirical", "match")
			}
			theory := "unsolvable"
			if cell.Theory {
				theory = "solvable"
			}
			match := "yes"
			if !cell.Match {
				match = "NO"
			}
			tb.AddRow(cell.I, cell.J, theory, cell.Empirical, match)
		}
		if tb != nil {
			fmt.Fprintln(w, tb.Render())
		}
	}
	if err := emit(w, c, "matrix", params, rep); err != nil {
		return err
	}
	if rep.Summary.Failed > 0 {
		return fmt.Errorf("%d cells did not match the characterization", rep.Summary.Failed)
	}
	return checkDegraded(rep)
}

func cmdFuzz(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	var c common
	c.register(fs)
	target := fs.String("target", explore.TargetCommitAdopt, "protocol to fuzz (commitadopt|consensus|cachain|kset|bg)")
	n := fs.Int("n", 4, "number of processes")
	steps := fs.Int("steps", 300, "steps per schedule")
	schedules := fs.Int("schedules", 1000, "number of schedules")
	crashSpec := fs.String("crashes", "", "crash patterns, e.g. \"p1@3;p2@0,p4@9\" (empty = failure-free)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	patterns, err := parseCrashPatterns(*crashSpec)
	if err != nil {
		return err
	}
	s, err := c.begin(ctx, "fuzz", args, fuzzParams(*target, *n, *steps, *schedules))
	if err != nil {
		return err
	}
	defer s.close()
	// Resolve the target before opening the -jsonl sink so invalid
	// invocations don't create (and leak) the stream file.
	build, err := explore.PooledTargetBuilder(*target, *n)
	if err != nil {
		return err
	}
	if err := s.openSink(); err != nil {
		return err
	}
	rep, runs, err := explore.FuzzPooledCampaign(s.ctx, c.workers, *n, *steps, *schedules, c.seed, patterns, build, s.sink)
	if err = s.finish(err); err != nil {
		var v *explore.Violation
		if rep != nil && errors.As(err, &v) {
			// Keep stdout parseable in -json mode: the human-readable
			// violation line goes to stderr there.
			dst := w
			if c.jsonOut {
				dst = os.Stderr
			}
			fmt.Fprintf(dst, "VIOLATION after %d runs: %v\n", runs, v)
			if eerr := emit(w, c, "fuzz", fuzzParams(*target, *n, *steps, *schedules), rep); eerr != nil {
				return eerr
			}
			return fmt.Errorf("fuzz campaign found a violation")
		}
		return err
	}
	if err := emit(w, c, "fuzz", fuzzParams(*target, *n, *steps, *schedules), rep); err != nil {
		return err
	}
	return checkDegraded(rep)
}

// cmdExhaustive sweeps every schedule of exactly -depth steps over -n
// processes for the named target. By default the sweep is partial-order
// reduced: one canonical representative per class of schedules that differ
// only by swapping adjacent commuting operations, with the states-explored
// accounting in the summary. -reduce=false runs the full n^depth enumeration
// on the campaign engine instead (the reduction's ground truth).
func cmdExhaustive(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("exhaustive", flag.ExitOnError)
	var c common
	c.register(fs)
	target := fs.String("target", explore.TargetCommitAdopt, "protocol to explore (commitadopt|consensus|cachain|kset|bg)")
	n := fs.Int("n", 2, "number of processes (1..4)")
	depth := fs.Int("depth", 10, "schedule length (every schedule of exactly this depth)")
	reduce := fs.Bool("reduce", true, "prune commutation-equivalent schedules (sleep-set partial-order reduction)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := map[string]any{"target": *target, "n": *n, "depth": *depth, "reduce": *reduce}
	if *reduce && c.resilienceRequested() {
		return fmt.Errorf("the reduced exhaustive sweep is a single sequential explorer; checkpoint/chaos flags need the campaign engine (-reduce=false)")
	}
	s, err := c.begin(ctx, "exhaustive", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	build, err := explore.PooledTargetBuilder(*target, *n)
	if err != nil {
		return err
	}
	if !*reduce {
		if err := s.openSink(); err != nil {
			return err
		}
		rep, runs, err := explore.ExhaustivePooledCampaign(s.ctx, c.workers, *n, *depth, build, s.sink)
		if err = s.finish(err); err != nil {
			var v *explore.Violation
			if rep != nil && errors.As(err, &v) {
				dst := w
				if c.jsonOut {
					dst = os.Stderr
				}
				fmt.Fprintf(dst, "VIOLATION after %d runs: %v\n", runs, v)
				if eerr := emit(w, c, "exhaustive", params, rep); eerr != nil {
					return eerr
				}
				return fmt.Errorf("exhaustive campaign found a violation")
			}
			return err
		}
		if err := emit(w, c, "exhaustive", params, rep); err != nil {
			return err
		}
		return checkDegraded(rep)
	}
	stats, err := explore.ExhaustiveReduced(*n, *depth, build)
	summary := struct {
		Campaign  string               `json:"campaign"`
		Params    map[string]any       `json:"params"`
		Stats     explore.ReducedStats `json:"stats"`
		Reduction float64              `json:"reduction"`
	}{"exhaustive", params, stats, stats.Ratio()}
	if err != nil {
		var v *explore.Violation
		if errors.As(err, &v) {
			dst := w
			if c.jsonOut {
				dst = os.Stderr
			}
			fmt.Fprintf(dst, "VIOLATION after %d canonical schedules: %v\n", stats.Schedules, v)
			if c.jsonOut {
				if eerr := json.NewEncoder(w).Encode(summary); eerr != nil {
					return eerr
				}
			}
			return fmt.Errorf("exhaustive sweep found a violation")
		}
		return err
	}
	if c.jsonOut {
		return json.NewEncoder(w).Encode(summary)
	}
	fmt.Fprintf(w, "exhaustive %s: n=%d depth=%d: %d of %d schedules executed (%.1fx reduction), %d states expanded, %d simulator steps\n",
		*target, *n, *depth, stats.Schedules, stats.Total, stats.Ratio(), stats.States, stats.Steps)
	return nil
}

func fuzzParams(target string, n, steps, schedules int) map[string]any {
	return map[string]any{"target": target, "n": n, "steps": steps, "schedules": schedules}
}

// parseCrashPatterns parses "p1@3;p2@0,p4@9": patterns separated by ';',
// each a comma-separated list of proc@steps entries.
func parseCrashPatterns(spec string) ([]map[procset.ID]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var patterns []map[procset.ID]int
	for _, pat := range strings.Split(spec, ";") {
		m := make(map[procset.ID]int)
		for _, entry := range strings.Split(pat, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			procText, stepText, found := strings.Cut(entry, "@")
			if !found {
				return nil, fmt.Errorf("bad crash entry %q (want p<i>@<steps>)", entry)
			}
			procText = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(procText), "p"))
			id, err := strconv.Atoi(procText)
			if err != nil {
				return nil, fmt.Errorf("bad crash entry %q: %v", entry, err)
			}
			at, err := strconv.Atoi(strings.TrimSpace(stepText))
			if err != nil {
				return nil, fmt.Errorf("bad crash entry %q: %v", entry, err)
			}
			m[procset.ID(id)] = at
		}
		if len(m) > 0 {
			patterns = append(patterns, m)
		}
	}
	return patterns, nil
}

func cmdAdversarial(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("adversarial", flag.ExitOnError)
	var c common
	c.register(fs)
	n := fs.Int("n", 4, "number of processes (solver runs at k = t = n/2)")
	steps := fs.Int("steps", 100_000, "step horizon per run")
	runs := fs.Int("runs", 32, "number of runs (cycles through the crash-pattern population)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := map[string]any{"n": *n, "steps": *steps, "runs": *runs}
	s, err := c.begin(ctx, "adversarial", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.openSink(); err != nil {
		return err
	}
	rep, executed, err := explore.AdversarialPooledCampaign(s.ctx, c.workers, *n, *steps, *runs, c.seed, s.sink)
	if err = s.finish(err); err != nil {
		if rep != nil {
			dst := w
			if c.jsonOut {
				dst = os.Stderr
			}
			fmt.Fprintf(dst, "FAILED after %d runs: %v\n", executed, err)
			if eerr := emit(w, c, "adversarial", params, rep); eerr != nil {
				return eerr
			}
			return fmt.Errorf("adversarial campaign failed")
		}
		return err
	}
	if err := emit(w, c, "adversarial", params, rep); err != nil {
		return err
	}
	return checkDegraded(rep)
}

// cmdByzantine sweeps the Byzantine degradation grid: (crash count × byz
// count × corruption strategy) cells against one workload, each cell
// classified safe/degraded/violated over its runs. Violated cells are data
// — the sweep exits 0 when it completes — and the matrix is invariant under
// -workers and -procs.
func cmdByzantine(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("byzantine", flag.ExitOnError)
	var c common
	c.register(fs)
	target := fs.String("target", explore.TargetConsensus, "workload: commitadopt|consensus|cachain|kset|bg|antiomega")
	n := fs.Int("n", 3, "number of processes")
	crashRange := fs.String("crash", "0:1", "crash counts swept (value or lo:hi range)")
	byzRange := fs.String("byz", "0:1", "Byzantine counts swept (value or lo:hi range)")
	strategies := fs.String("strategies", "flip,stale,split", "comma-separated corruption strategies for byz ≥ 1 cells")
	runs := fs.Int("runs", 32, "runs per cell (each draws its own fault population)")
	steps := fs.Int("steps", 100_000, "step horizon per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	crashLo, crashHi, err := parseRange(*crashRange)
	if err != nil {
		return err
	}
	byzLo, byzHi, err := parseRange(*byzRange)
	if err != nil {
		return err
	}
	if crashLo != 0 || byzLo != 0 {
		return fmt.Errorf("byzantine: crash and byz ranges must start at 0 (the honest baseline anchors the matrix), got %s and %s", *crashRange, *byzRange)
	}
	var strats []adversary.Strategy
	for _, s := range strings.Split(*strategies, ",") {
		st, err := adversary.ParseStrategy(s)
		if err != nil {
			return err
		}
		if st == adversary.StrategyNone {
			return fmt.Errorf("byzantine: strategy \"none\" is implicit in the byz=0 cells; sweep real strategies")
		}
		strats = append(strats, st)
	}
	params := map[string]any{
		"target": *target, "n": *n, "crash": crashHi, "byz": byzHi,
		"strategies": *strategies, "runs": *runs, "steps": *steps,
	}
	s, err := c.begin(ctx, "byzantine", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.openSink(); err != nil {
		return err
	}
	rep, cells, err := explore.ByzantineCampaign(s.ctx, explore.ByzConfig{
		Target:     *target,
		N:          *n,
		CrashMax:   crashHi,
		ByzMax:     byzHi,
		Strategies: strats,
		Runs:       *runs,
		Steps:      *steps,
		Seed:       c.seed,
		Workers:    c.workers,
	}, s.sink)
	if err = s.finish(err); err != nil {
		return err
	}
	if c.jsonOut {
		enc := json.NewEncoder(w)
		if err := enc.Encode(struct {
			record
			Cells []explore.ByzCell `json:"cells"`
		}{record{
			Campaign:  "byzantine",
			Params:    params,
			Seed:      c.seed,
			Workers:   rep.Workers,
			ElapsedNS: int64(rep.Elapsed),
			Summary:   rep.Summary,
		}, cells}); err != nil {
			return err
		}
	} else {
		tb := trace.NewTable(
			fmt.Sprintf("Byzantine degradation matrix: %s, n=%d, %d runs/cell", *target, *n, *runs),
			"crash", "byz", "strategy", "safe", "degraded", "violated", "class")
		for _, cell := range cells {
			tb.AddRow(cell.Crash, cell.Byz, cell.Strategy, cell.Safe, cell.Degraded, cell.Violated, cell.Class)
		}
		fmt.Fprintln(w, tb.Render())
		for _, cell := range cells {
			if cell.Violation != nil {
				fmt.Fprintf(w, "cell c%d b%d %s first violation: %v\n", cell.Crash, cell.Byz, cell.Strategy, cell.Violation.Err)
				if cell.Violation.Trace != "" {
					fmt.Fprintln(w, cell.Violation.Trace)
				}
				if cell.Violation.Flight != "" {
					fmt.Fprint(w, cell.Violation.Flight)
				}
			}
		}
		if err := emit(w, c, "byzantine", params, rep); err != nil {
			return err
		}
	}
	return checkDegraded(rep)
}

// cmdNetConv sweeps detector convergence over graded link matrices: for
// each named msgnet matrix, many (schedule, delay) samples of the heartbeat
// Ω detector, tallying convergence, elected leaders, and the per-link
// grades an online obs.LinkMonitor extracted from the deliveries. The whole
// matrix is invariant under -workers and -procs.
func cmdNetConv(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("netconv", flag.ExitOnError)
	var c common
	c.register(fs)
	n := fs.Int("n", 4, "number of processes (the mixed matrix needs ≥ 3)")
	matrices := fs.String("matrices", "", "comma-separated link matrices to sweep: sync,psync,async,mixed (empty = all)")
	delta := fs.Int("delta", 2, "timely grades' delivery bound Δ")
	gst := fs.Int("gst", 0, "partial-synchrony stabilization step (0 = steps/4)")
	probe := fs.Int("probe", 0, "link monitor probe bound (0 = Δ + 3n(n−1), absorbing scheduling dilation)")
	wild := fs.Int("wild", 0, "unbounded-regime delivery bound (0 = msgnet default)")
	runs := fs.Int("runs", 32, "samples per matrix")
	steps := fs.Int("steps", 20_000, "step horizon per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	for _, m := range strings.Split(*matrices, ",") {
		if m = strings.TrimSpace(m); m != "" {
			names = append(names, m)
		}
	}
	params := map[string]any{
		"n": *n, "matrices": strings.Join(names, ","), "delta": *delta, "gst": *gst,
		"probe": *probe, "wild": *wild, "runs": *runs, "steps": *steps,
	}
	s, err := c.begin(ctx, "netconv", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.openSink(); err != nil {
		return err
	}
	rep, cells, err := explore.NetConvCampaign(s.ctx, explore.NetConvConfig{
		Matrices: names,
		N:        *n,
		Delta:    *delta,
		GST:      *gst,
		Probe:    *probe,
		Wild:     *wild,
		Runs:     *runs,
		Steps:    *steps,
		Seed:     c.seed,
		Workers:  c.workers,
	}, s.sink)
	if err = s.finish(err); err != nil {
		return err
	}
	if c.jsonOut {
		return json.NewEncoder(w).Encode(struct {
			record
			Cells []explore.NetCell `json:"cells"`
		}{record{
			Campaign:  "netconv",
			Params:    params,
			Seed:      c.seed,
			Workers:   rep.Workers,
			ElapsedNS: int64(rep.Elapsed),
			Summary:   rep.Summary,
		}, cells})
	}
	tb := trace.NewTable(
		fmt.Sprintf("detector convergence over graded link matrices: n=%d, %d runs/matrix", *n, *runs),
		"matrix", "runs", "converged", "split", "top leader", "top grades")
	for _, cell := range cells {
		leader, grades := "-", "-"
		if len(cell.Leaders) > 0 {
			leader = fmt.Sprintf("%s ×%d", cell.Leaders[0].Leader, cell.Leaders[0].Count)
		}
		if len(cell.Grades) > 0 {
			grades = fmt.Sprintf("%s ×%d", cell.Grades[0].Grades, cell.Grades[0].Count)
		}
		tb.AddRow(cell.Matrix, cell.Runs, cell.Converged, cell.Split, leader, grades)
	}
	fmt.Fprintln(w, tb.Render())
	for _, cell := range cells {
		fmt.Fprintf(w, "%s sample: %s\n", cell.Matrix, cell.Sample)
	}
	if err := emit(w, c, "netconv", params, rep); err != nil {
		return err
	}
	return checkDegraded(rep)
}

func cmdConverge(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("converge", flag.ExitOnError)
	var c common
	c.register(fs)
	n := fs.Int("n", 4, "system size n")
	k := fs.Int("k", 2, "detector parameter k")
	t := fs.Int("t", 2, "resilience t")
	bound := fs.Int("bound", 4, "Definition 1 bound enforced by the generator")
	trials := fs.Int("trials", 32, "independent trials")
	maxSteps := fs.Int("maxsteps", 2_000_000, "step budget per trial")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := map[string]any{"n": *n, "k": *k, "t": *t, "bound": *bound, "trials": *trials}
	s, err := c.begin(ctx, "converge", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.openSink(); err != nil {
		return err
	}
	rep, err := experiments.RunConvergenceSweep(s.ctx, experiments.ConvergenceConfig{
		N: *n, K: *k, T: *t, Bound: *bound, Trials: *trials, MaxSteps: *maxSteps, Workers: c.workers,
	}, c.seed, s.sink)
	if err = s.finish(err); err != nil {
		return err
	}
	if err := emit(w, c, "converge", params, rep); err != nil {
		return err
	}
	if rep.Summary.Failed > 0 {
		return fmt.Errorf("%d trials failed to converge or violated the property", rep.Summary.Failed)
	}
	return checkDegraded(rep)
}

func cmdRelations(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("relations", flag.ExitOnError)
	var c common
	c.register(fs)
	n := fs.Int("n", 4, "system size n (2..6)")
	bound := fs.Int("bound", 4, "Definition 1 bound tested")
	steps := fs.Int("steps", 2000, "prefix length analyzed per schedule")
	schedules := fs.Int("schedules", 100, "population size")
	gen := fs.String("gen", "mixed", "schedule generator: random|starver|mixed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := map[string]any{"n": *n, "bound": *bound, "steps": *steps, "schedules": *schedules, "gen": *gen}
	s, err := c.begin(ctx, "relations", args, params)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.openSink(); err != nil {
		return err
	}
	rep, err := experiments.RunRelationsCampaign(s.ctx, experiments.RelationsConfig{
		N: *n, Bound: *bound, Steps: *steps, Schedules: *schedules, Generator: *gen, Workers: c.workers,
	}, c.seed, s.sink)
	if err = s.finish(err); err != nil {
		return err
	}
	if !c.jsonOut {
		tb := trace.NewTable(
			fmt.Sprintf("empirical timeliness relations over %d schedules (bound %d)", rep.Summary.Completed, *bound),
			"system", "held", "fraction")
		for i := 1; i <= *n; i++ {
			for j := i; j <= *n; j++ {
				held := rep.Summary.Tallies[experiments.RelationKey(i, j)]
				frac := 0.0
				if rep.Summary.Completed > 0 {
					frac = float64(held) / float64(rep.Summary.Completed)
				}
				tb.AddRow(fmt.Sprintf("S^%d_{%d,%d}", i, j, *n), held, fmt.Sprintf("%.2f", frac))
			}
		}
		fmt.Fprintln(w, tb.Render())
	}
	if err := emit(w, c, "relations", params, rep); err != nil {
		return err
	}
	return checkDegraded(rep)
}

// segmentSwitcher alternates between two sources in fixed-length segments,
// exercising the monitor across regime changes (random churn versus
// adversarial starvation) within a single run. Both regimes recur forever,
// so the correct set is the union.
type segmentSwitcher struct {
	a, b sched.Source
	seg  int
	pos  int
	onB  bool
}

func (s *segmentSwitcher) Next() procset.ID {
	if s.pos == s.seg {
		s.pos, s.onB = 0, !s.onB
	}
	s.pos++
	if s.onB {
		return s.b.Next()
	}
	return s.a.Next()
}

func (s *segmentSwitcher) N() int               { return s.a.N() }
func (s *segmentSwitcher) Correct() procset.Set { return s.a.Correct().Union(s.b.Correct()) }

// monitorSource builds the schedule source for the monitor subcommand,
// mirroring the relations campaign's generator choices.
func monitorSource(gen string, n int, seed int64) (sched.Source, error) {
	starver := func() (sched.Source, error) {
		k := int(uint64(seed)%uint64(n-1)) + 1
		return sched.RotatingStarver(n, k, 1)
	}
	switch gen {
	case "random":
		return sched.Random(n, seed, nil)
	case "starver":
		return starver()
	case "mixed":
		a, err := sched.Random(n, seed, nil)
		if err != nil {
			return nil, err
		}
		b, err := starver()
		if err != nil {
			return nil, err
		}
		return &segmentSwitcher{a: a, b: b, seg: 512}, nil
	default:
		return nil, fmt.Errorf("unknown -gen %q (want random|starver|mixed)", gen)
	}
}

func printGraph(w io.Writer, title string, graph []obs.SystemStatus, n int) {
	tb := trace.NewTable(title, "system", "held", "best P", "best Q", "min bound")
	for _, st := range graph {
		held := "no"
		if st.Held {
			held = "yes"
		}
		tb.AddRow(fmt.Sprintf("S^%d_{%d,%d}", st.I, st.J, n), held, st.BestP, st.BestQ, st.MinBound)
	}
	fmt.Fprintln(w, tb.Render())
}

// cmdMonitor runs the online timeliness-graph monitor over a generated
// schedule, printing the graph periodically and cross-checking the final
// state against the batch extractor on the retained schedule.
func cmdMonitor(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	var c common
	c.register(fs)
	n := fs.Int("n", 4, "system size n (2..6)")
	gen := fs.String("gen", "mixed", "schedule generator: random|starver|mixed")
	steps := fs.Int("steps", 4096, "steps to observe")
	every := fs.Int("every", 1024, "print the timeliness graph every E steps (0 = final only)")
	bound := fs.Int("bound", 4, "Definition 1 bound probed by the graph")
	window := fs.Int("window", 0, "sliding-window size for the recent view (0 = cumulative only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 || *n > 6 {
		return fmt.Errorf("monitor tracks the full S^i_{j,n} family, which needs 2 <= n <= 6 (got %d)", *n)
	}
	if *steps < 1 {
		return fmt.Errorf("-steps must be positive")
	}
	s, err := c.begin(ctx, "monitor", args,
		map[string]any{"n": *n, "gen": *gen, "steps": *steps, "every": *every, "bound": *bound, "window": *window})
	if err != nil {
		return err
	}
	defer s.close()
	ctx = s.ctx
	src, err := monitorSource(*gen, *n, c.seed)
	if err != nil {
		return err
	}
	m, err := obs.NewMonitor(obs.MonitorConfig{N: *n, Window: *window})
	if err != nil {
		return err
	}
	if c.pprofAddr != "" {
		obs.Publish("monitor", func() any {
			return map[string]any{"steps": m.Steps(), "graph": m.Graph(*bound)}
		})
	}

	// Feed the monitor in blocks (the bulk path the engines use), retaining
	// the full schedule so the final state can be cross-checked below.
	full := make(sched.Schedule, 0, *steps)
	var block [256]procset.ID
	nextPrint := *steps
	if *every > 0 {
		nextPrint = *every
	}
	for done := 0; done < *steps; {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted after %d steps", done)
		}
		k := len(block)
		if rem := *steps - done; rem < k {
			k = rem
		}
		if rem := nextPrint - done; rem < k {
			k = rem
		}
		sched.FillBlock(src, block[:k])
		m.ObserveBlock(block[:k])
		full = append(full, block[:k]...)
		done += k
		if done == nextPrint {
			if *every > 0 && !c.jsonOut {
				printGraph(w, fmt.Sprintf("timeliness graph after %d steps (bound %d)", m.Steps(), *bound), m.Graph(*bound), *n)
				if *window > 0 {
					win := len(m.WindowSchedule())
					printGraph(w, fmt.Sprintf("recent view: last %d steps (bound %d)", win, *bound), m.RecentGraph(*bound), *n)
				}
				nextPrint += *every
			} else {
				nextPrint = *steps
			}
		}
	}

	// The online monitor must agree with the batch extractor on the schedule
	// it just observed; a mismatch is a bug, not a measurement.
	for i := 1; i <= *n; i++ {
		for j := i; j <= *n; j++ {
			if got, want := m.Best(i, j), sched.BestPair(full, *n, i, j); got != want {
				return fmt.Errorf("monitor disagrees with batch extractor on S^%d_{%d,%d}: online %+v, batch %+v", i, j, *n, got, want)
			}
			if got, want := m.InSystem(i, j, *bound), sched.InSystem(full, *n, i, j, *bound); got != want {
				return fmt.Errorf("monitor InSystem(%d,%d,%d) = %v, batch says %v", i, j, *bound, got, want)
			}
		}
	}

	if c.jsonOut {
		out := struct {
			Campaign string             `json:"campaign"`
			Params   map[string]any     `json:"params"`
			Seed     int64              `json:"seed"`
			Steps    int                `json:"steps"`
			Graph    []obs.SystemStatus `json:"graph"`
			Recent   []obs.SystemStatus `json:"recent,omitempty"`
		}{
			Campaign: "monitor",
			Params:   map[string]any{"n": *n, "gen": *gen, "every": *every, "bound": *bound, "window": *window},
			Seed:     c.seed,
			Steps:    m.Steps(),
			Graph:    m.Graph(*bound),
		}
		if *window > 0 {
			out.Recent = m.RecentGraph(*bound)
		}
		return json.NewEncoder(w).Encode(out)
	}
	if *every <= 0 || *steps%*every != 0 {
		printGraph(w, fmt.Sprintf("timeliness graph after %d steps (bound %d)", m.Steps(), *bound), m.Graph(*bound), *n)
		if *window > 0 {
			win := len(m.WindowSchedule())
			printGraph(w, fmt.Sprintf("recent view: last %d steps (bound %d)", win, *bound), m.RecentGraph(*bound), *n)
		}
	}
	fmt.Fprintf(w, "monitor: %d steps observed, online state verified against the batch extractor\n", m.Steps())
	return nil
}
