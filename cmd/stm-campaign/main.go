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
// Every subcommand is one entry of the commands table: its flags, each
// numeric one with its domain, and the plan (params, run, render) it builds
// from them. One driver, execute, does the rest for all of them and for
// worker processes: parse, validate, begin the session, stream -jsonl,
// print findings, emit the summary and map the outcome to the exit code.
//
// Global-ish flags on every campaign subcommand: -workers (0 = GOMAXPROCS),
// -seed, -json (machine-readable summary on stdout), -jsonl FILE (stream
// one JSON record per job). Resilience flags (-checkpoint, -resume, -procs,
// -chaos, -lease, -retries) route the run through the fault-tolerant
// coordinator: checkpointed, lease-based dispatch that survives worker
// crashes and hangs and resumes after coordinator death with a bit-identical
// aggregate.
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
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/faultinject"
	"github.com/settimeliness/settimeliness/internal/msgnet"
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
	err := execute(ctx, os.Args[1], os.Args[2:], os.Stdout)
	if ctx.Err() != nil && err == nil {
		err = fmt.Errorf("interrupted; partial results above")
	}
	os.Exit(exitCode("stm-campaign", err))
}

// runWorker is the worker-process entry: rebuild the same campaign the
// coordinator holds by running the identical subcommand code path, with
// campaign.Run rerouted into serve mode. Human output is discarded;
// parent-only side effects (sink files, checkpoints, debug servers) are
// disabled by the ServingWorker gates in the shared helpers.
func runWorker() {
	ctx := campaign.WithWorkerServe(context.Background(), os.Stdin, os.Stdout)
	os.Exit(exitCode("stm-campaign worker", execute(ctx, os.Args[1], os.Args[2:], io.Discard)))
}

// errUsage marks a bad command line whose problem was already printed.
var errUsage = errors.New("usage")

// intRange is an int flag with the closed domain [lo, hi]: fs.Parse rejects
// a value outside it, so an out-of-range flag is a usage error before any
// plan is built.
type intRange struct {
	v      *int
	lo, hi int
}

// intIn defines an int flag whose value must lie in [lo, hi]
// (hi = math.MaxInt: no upper bound).
func intIn(fs *flag.FlagSet, name string, value, lo, hi int, usage string) *int {
	v := new(int)
	intVarIn(fs, v, name, value, lo, hi, usage)
	return v
}

func intVarIn(fs *flag.FlagSet, v *int, name string, value, lo, hi int, usage string) {
	*v = value
	r := &intRange{v: v, lo: lo, hi: hi}
	fs.Var(r, name, usage+" (`int` "+r.domain()+")") // -h shows "-name int"
}

func (r *intRange) domain() string {
	if r.hi == math.MaxInt {
		return fmt.Sprintf("≥ %d", r.lo)
	}
	return fmt.Sprintf("in %d..%d", r.lo, r.hi)
}

func (r *intRange) String() string {
	if r.v == nil { // the zero value flag.PrintDefaults probes
		return "0"
	}
	return strconv.Itoa(*r.v)
}

func (r *intRange) Set(text string) error {
	v, err := strconv.ParseInt(text, 0, strconv.IntSize)
	if err != nil || v < int64(r.lo) || v > int64(r.hi) {
		return fmt.Errorf("want an integer %s", r.domain())
	}
	*r.v = int(v)
	return nil
}

// stringChoice is a string flag with a closed set of values: fs.Parse
// rejects any other, and -h lists them.
type stringChoice struct {
	v       *string
	choices []string
}

// stringIn defines a string flag whose value must be one of choices.
func stringIn(fs *flag.FlagSet, name, value, usage string, choices ...string) *string {
	r := &stringChoice{v: &value, choices: choices}
	fs.Var(r, name, usage+" (`string` "+r.domain()+")")
	return r.v
}

func (r *stringChoice) domain() string { return "in " + strings.Join(r.choices, "|") }

func (r *stringChoice) String() string {
	if r.v == nil { // the zero value flag.PrintDefaults probes
		return ""
	}
	return *r.v
}

func (r *stringChoice) Set(text string) error {
	if !slices.Contains(r.choices, text) {
		return fmt.Errorf("want a string %s", r.domain())
	}
	*r.v = text
	return nil
}

// exitCode reports err on stderr and maps it to the process exit code.
func exitCode(prog string, err error) int {
	if err == nil {
		return exitOK
	}
	if errors.Is(err, errUsage) {
		return exitUsage
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	var ie *campaign.InterruptedError
	var de *degradedError
	switch {
	case errors.As(err, &ie):
		fmt.Fprintf(os.Stderr, "%s: resume with: %s\n", prog, resumeCommand())
		return exitInterrupted
	case errors.As(err, &de):
		return exitDegraded
	}
	return exitError
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

// finding is a property failure that a campaign found and reported in full:
// the driver prints line (on stderr in -json mode), still emits the
// summary, and fails with err.
type finding struct {
	line string
	err  error
}

func (f *finding) Error() string { return f.err.Error() }

// violation turns a campaign's explore.Violation into a finding; any other
// error passes through.
func violation(name string, rep *campaign.Report, runs int, err error) error {
	var v *explore.Violation
	if rep == nil || !errors.As(err, &v) {
		return err
	}
	return &finding{fmt.Sprintf("VIOLATION after %d runs: %v", runs, v), fmt.Errorf("%s campaign found a violation", name)}
}

// subcommand is one entry of the commands table.
type subcommand struct {
	name     string
	synopsis string
	// standalone subcommands run no campaign: of the common flags they
	// take only -seed, -json and -pprof.
	standalone bool
	// flags registers the subcommand's own flags and returns prepare: once
	// fs.Parse has checked each flag's domain, it checks what no single
	// domain can and builds the plan; any error it returns is a usage error.
	flags func(fs *flag.FlagSet, c *common) func() (*plan, error)
}

// plan is one validated invocation. params is both the checkpoint identity
// and the -json params field, so every flag that changes an outcome
// belongs in it. A campaign plan sets run, and optionally render and
// failed; a standalone plan sets direct, which writes its own output.
type plan struct {
	params map[string]any
	// run executes the campaign, streaming outcomes to sink (nil when
	// there is no -jsonl). cells, if not nil, is the -json record's cells.
	run func(ctx context.Context, sink func(campaign.Outcome)) (rep *campaign.Report, cells any, err error)
	// render writes the human-readable report ahead of the summary lines.
	render func(w io.Writer, rep *campaign.Report)
	// failed, if set, makes failed jobs an error: "<count> <failed>".
	failed string
	// direct replaces run, render and failed for a standalone subcommand.
	direct func(ctx context.Context, w io.Writer) error
}

var commands = []*subcommand{
	{name: "matrix", synopsis: "-t T -k K -n N [-posbudget B] [-negbudget B]  empirical Theorem 27 matrices", flags: matrixCmd},
	{name: "fuzz", synopsis: "-target commitadopt|consensus|cachain|kset|bg -schedules S [-crashes P]  schedule fuzzing", flags: fuzzCmd},
	{name: "exhaustive", synopsis: "-target T -n N -depth D [-reduce=false]  every schedule up to depth D (partial-order reduced by default)", flags: exhaustiveCmd},
	{name: "converge", synopsis: "-n N -k K -t T -trials R  detector-convergence sweep", flags: convergeCmd},
	{name: "relations", synopsis: "-n N -schedules S [-gen random|starver|mixed]  timeliness-relation extraction", flags: relationsCmd},
	{name: "adversarial", synopsis: "-n N -runs R [-steps S]  parking adversary vs the Theorem 24 solver", flags: adversarialCmd},
	{name: "byzantine", synopsis: "-target T -n N [-crash LO:HI] [-byz LO:HI] [-strategies flip,stale,split] [-runs R] [-steps S]  Byzantine degradation matrix", flags: byzantineCmd},
	{name: "netconv", synopsis: "-n N [-matrices sync,psync,async,mixed] [-runs R] [-steps S] [-delta D] [-gst G] [-probe P]  detector convergence over graded link matrices", flags: netconvCmd},
	{name: "monitor", synopsis: "-n N -steps S [-every E] [-gen random|starver|mixed]  online timeliness-graph monitoring (flags: -seed, -json, -pprof)", standalone: true, flags: monitorCmd},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage:")
	for _, cmd := range commands {
		fmt.Fprintf(os.Stderr, "  stm-campaign %-11s %s\n", cmd.name, cmd.synopsis)
	}
	fmt.Fprintln(os.Stderr, `T, K, N accept single values ("2") or inclusive ranges ("1:3").
Each numeric flag declares its domain where it is registered (-h lists
them); a value outside it, or any other bad flag, is a usage error (exit 2)
before anything runs or is written.
Common flags: -workers W (0 = GOMAXPROCS), -seed S, -json, -jsonl FILE,
-progress N (heartbeat to stderr every N jobs), -pprof ADDR (pprof+expvar),
-flight K (flight-recorder depth; every campaign but relations, which runs
no simulator).
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

// execute runs one invocation of the named subcommand, writing its report
// to w: the one path from arguments to result for every subcommand, in the
// coordinating process and in worker processes alike.
func execute(ctx context.Context, name string, args []string, w io.Writer) error {
	i := slices.IndexFunc(commands, func(cmd *subcommand) bool { return cmd.name == name })
	if i < 0 {
		usage()
		return errUsage
	}
	cmd := commands[i]
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var c common
	c.register(fs, cmd.standalone)
	prepare := cmd.flags(fs, &c)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	// fs.Parse has checked every flag against its declared domain; prepare
	// checks the rest (names, specs, flags that constrain each other). Both
	// run before any side effect, so a bad invocation is a usage error that
	// leaves no stream file behind and starts no debug server.
	p, err := prepare()
	if err != nil {
		fmt.Fprintf(fs.Output(), "stm-campaign %s: %v\n", name, err)
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	ctx, cleanup, err := c.begin(ctx, name, args, p.params)
	if err != nil {
		return err
	}
	defer cleanup()
	var rep *campaign.Report
	var cells any
	if p.direct != nil {
		err = p.direct(ctx, w)
	} else {
		sink, closeSink, serr := c.sink(ctx)
		if serr != nil {
			return serr
		}
		rep, cells, err = p.run(ctx, sink)
		if cerr := closeSink(); err == nil {
			err = cerr
		}
	}
	var f *finding
	if errors.As(err, &f) {
		// Keep stdout parseable in -json mode.
		dst := w
		if c.jsonOut {
			dst = os.Stderr
		}
		fmt.Fprintln(dst, f.line)
	}
	// Standalone runs and campaigns that failed to complete have no
	// summary to emit.
	if rep == nil || (err != nil && f == nil) {
		return err
	}
	if p.render != nil && !c.jsonOut {
		p.render(w, rep)
	}
	if err := emit(w, c, name, p.params, rep, cells); err != nil {
		return err
	}
	if f != nil {
		return f.err
	}
	return p.verdict(rep)
}

// verdict is the result of a campaign that completed without a finding:
// failed jobs are an error when the plan names them, quarantined jobs make
// the run degraded.
func (p *plan) verdict(rep *campaign.Report) error {
	if p.failed != "" && rep.Summary.Failed > 0 {
		return fmt.Errorf("%d %s", rep.Summary.Failed, p.failed)
	}
	return checkDegraded(rep)
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

// register defines the common flags on fs; a standalone subcommand gets
// only the three it uses.
func (c *common) register(fs *flag.FlagSet, standalone bool) {
	fs.Int64Var(&c.seed, "seed", 1, "campaign master seed")
	fs.BoolVar(&c.jsonOut, "json", false, "emit a machine-readable JSON summary on stdout")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve pprof and expvar debug endpoints on this address (e.g. localhost:6060)")
	if standalone {
		return
	}
	intVarIn(fs, &c.workers, "workers", 0, 0, math.MaxInt, "worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&c.jsonlOut, "jsonl", "", "stream one JSON record per job to this file")
	intVarIn(fs, &c.progress, "progress", 0, 0, math.MaxInt, "emit a JSONL heartbeat to stderr every N completed jobs (0 = off)")
	intVarIn(fs, &c.flight, "flight", 0, 0, math.MaxInt, "per-runner flight recorder depth, dumped on violation or panic (0 = off; relations runs no simulator and ignores it)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "journal completed jobs to this file; interrupted runs resume from it")
	fs.BoolVar(&c.resume, "resume", false, "resume from the -checkpoint journal, skipping completed jobs (aggregate stays bit-identical)")
	intVarIn(fs, &c.procs, "procs", 0, 0, math.MaxInt, "dispatch jobs to this many child worker processes instead of in-process goroutines (0 = none)")
	fs.StringVar(&c.chaos, "chaos", "", `deterministic fault plan, e.g. "kill@3;stall@p0.05~300ms;trunc@7" (see usage)`)
	fs.DurationVar(&c.lease, "lease", 0, "per-attempt deadline before a job is requeued as hung (0 = 1m)")
	fs.IntVar(&c.retries, "retries", 0, "re-leases per job before quarantine (0 = 3, negative = none)")
}

// begin folds every common context knob — coordinator resilience,
// instrumentation and the flight-recorder depth — into one campaign.Options
// and applies it with a single campaign.WithOptions call. name, args, and
// params feed the resilience layer's checkpoint identity and worker
// respawn. The returned cleanup stops instrumentation.
func (c *common) begin(ctx context.Context, name string, args []string, params map[string]any) (context.Context, func(), error) {
	o := campaign.Options{Flight: c.flight}
	cleanup := func() {}
	// Resilience and instrumentation belong to the coordinating parent; a
	// worker process (serve knob already installed) only carries the
	// flight-recorder request.
	if !campaign.ServingWorker(ctx) {
		res, err := c.resilienceOptions(name, args, params)
		if err != nil {
			return nil, nil, err
		}
		o.Resilience = res
		if cleanup, err = c.instrument(&o); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return campaign.WithOptions(ctx, o), cleanup, nil
}

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

// record is the -json summary envelope shared by all campaign subcommands.
type record struct {
	Campaign  string           `json:"campaign"`
	Params    map[string]any   `json:"params"`
	Seed      int64            `json:"seed"`
	Workers   int              `json:"workers"`
	ElapsedNS int64            `json:"elapsed_ns"`
	Summary   campaign.Summary `json:"summary"`
	Cells     any              `json:"cells,omitempty"`
}

func emit(w io.Writer, c common, name string, params map[string]any, rep *campaign.Report, cells any) error {
	if c.jsonOut {
		return json.NewEncoder(w).Encode(record{
			Campaign:  name,
			Params:    params,
			Seed:      c.seed,
			Workers:   rep.Workers,
			ElapsedNS: int64(rep.Elapsed),
			Summary:   rep.Summary,
			Cells:     cells,
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

func matrixCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	tRange := fs.String("t", "2", "resilience t (value or lo:hi range)")
	kRange := fs.String("k", "2", "agreement parameter k (value or range)")
	nRange := fs.String("n", "4", "system size n (value or range)")
	posBudget := intIn(fs, "posbudget", 3_000_000, 1, math.MaxInt, "step budget for solvable cells")
	negBudget := intIn(fs, "negbudget", 300_000, 1, math.MaxInt, "step horizon for unsolvable cells")
	return func() (*plan, error) {
		var lo, hi [3]int // t, k, n
		for i, text := range []string{*tRange, *kRange, *nRange} {
			var err error
			if lo[i], hi[i], err = parseRange(text); err != nil {
				return nil, err
			}
		}
		var problems []core.Problem
		for n := lo[2]; n <= hi[2]; n++ {
			for t := lo[0]; t <= hi[0]; t++ {
				for k := lo[1]; k <= hi[1]; k++ {
					if p := (core.Problem{T: t, K: k, N: n}); p.Validate() == nil {
						problems = append(problems, p)
					}
				}
			}
		}
		if len(problems) == 0 {
			return nil, fmt.Errorf("no valid (t,k,n) problems in t=%s k=%s n=%s", *tRange, *kRange, *nRange)
		}
		var cells []experiments.MatrixCell
		return &plan{
			params: map[string]any{
				"t": *tRange, "k": *kRange, "n": *nRange,
				"posbudget": *posBudget, "negbudget": *negBudget,
				"problems": len(problems),
			},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (rep *campaign.Report, _ any, err error) {
				cells, rep, err = experiments.MatrixSweep(ctx, problems, c.seed, *posBudget, *negBudget, c.workers, sink)
				return rep, nil, err
			},
			render: func(w io.Writer, _ *campaign.Report) {
				// One table per problem; cells come problem-major.
				for lo := 0; lo < len(cells); {
					hi := lo + 1
					for hi < len(cells) && cells[hi].Problem == cells[lo].Problem {
						hi++
					}
					fmt.Fprintln(w, experiments.MatrixTable(fmt.Sprintf("Theorem 27 matrix for %v", cells[lo].Problem), cells[lo:hi]).Render())
					lo = hi
				}
			},
			failed: "cells did not match the characterization",
		}, nil
	}
}

// fuzzTarget resolves fuzz's -target. The command's tests wrap it with a
// target of their own, which their -procs children, the same test binary,
// resolve too.
var fuzzTarget = explore.PooledTargetBuilder

func fuzzCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	target := fs.String("target", explore.TargetCommitAdopt, "protocol to fuzz (commitadopt|consensus|cachain|kset|bg)")
	n := intIn(fs, "n", 4, 1, procset.MaxProcs, "number of processes")
	steps := intIn(fs, "steps", 300, 1, math.MaxInt, "steps per schedule")
	schedules := intIn(fs, "schedules", 1000, 1, math.MaxInt, "number of schedules")
	crashSpec := fs.String("crashes", "", "crash patterns, e.g. \"p1@3;p2@0,p4@9\" (empty = failure-free)")
	return func() (*plan, error) {
		patterns, err := parseCrashPatterns(*crashSpec)
		if err != nil {
			return nil, err
		}
		build, err := fuzzTarget(*target, *n)
		if err != nil {
			return nil, err
		}
		return &plan{
			params: map[string]any{"target": *target, "n": *n, "steps": *steps, "schedules": *schedules, "crashes": *crashSpec},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (*campaign.Report, any, error) {
				rep, runs, err := explore.FuzzPooledCampaign(ctx, c.workers, *n, *steps, *schedules, c.seed, patterns, build, sink)
				return rep, nil, violation("fuzz", rep, runs, err)
			},
			failed: "runs failed to complete",
		}, nil
	}
}

// exhaustiveCmd sweeps every schedule of exactly -depth steps over -n
// processes for the named target. By default the sweep is partial-order
// reduced: one canonical representative per class of schedules that differ
// only by swapping adjacent commuting operations, with the states-explored
// accounting in the summary. -reduce=false runs the full n^depth enumeration
// on the campaign engine instead (the reduction's ground truth).
func exhaustiveCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	target := fs.String("target", explore.TargetCommitAdopt, "protocol to explore (commitadopt|consensus|cachain|kset|bg)")
	n := intIn(fs, "n", 2, 1, 4, "number of processes")
	depth := intIn(fs, "depth", 10, 1, 24, "schedule length (every schedule of exactly this depth)")
	reduce := fs.Bool("reduce", true, "prune commutation-equivalent schedules (sleep-set partial-order reduction)")
	return func() (*plan, error) {
		if *reduce && (c.resilienceRequested() || c.jsonlOut != "") {
			return nil, fmt.Errorf("the reduced exhaustive sweep is a single sequential explorer; -jsonl and the checkpoint/chaos flags need the campaign engine (-reduce=false)")
		}
		build, err := explore.PooledTargetBuilder(*target, *n)
		if err != nil {
			return nil, err
		}
		p := &plan{params: map[string]any{"target": *target, "n": *n, "depth": *depth, "reduce": *reduce}}
		if !*reduce {
			p.run = func(ctx context.Context, sink func(campaign.Outcome)) (*campaign.Report, any, error) {
				rep, runs, err := explore.ExhaustivePooledCampaign(ctx, c.workers, *n, *depth, build, sink)
				return rep, nil, violation("exhaustive", rep, runs, err)
			}
			return p, nil
		}
		p.direct = func(_ context.Context, w io.Writer) error {
			stats, err := explore.ExhaustiveReduced(*n, *depth, build)
			var v *explore.Violation
			if err != nil && !errors.As(err, &v) {
				return err
			}
			if c.jsonOut {
				if err := json.NewEncoder(w).Encode(struct {
					Campaign  string               `json:"campaign"`
					Params    map[string]any       `json:"params"`
					Stats     explore.ReducedStats `json:"stats"`
					Reduction float64              `json:"reduction"`
				}{"exhaustive", p.params, stats, stats.Ratio()}); err != nil {
					return err
				}
			}
			if v != nil {
				return &finding{fmt.Sprintf("VIOLATION after %d canonical schedules: %v", stats.Schedules, v), errors.New("exhaustive sweep found a violation")}
			}
			if !c.jsonOut {
				fmt.Fprintf(w, "exhaustive %s: n=%d depth=%d: %d of %d schedules executed (%.1fx reduction), %d states expanded, %d simulator steps\n",
					*target, *n, *depth, stats.Schedules, stats.Total, stats.Ratio(), stats.States, stats.Steps)
			}
			return nil
		}
		return p, nil
	}
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

func adversarialCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	n := intIn(fs, "n", 4, 2, procset.MaxProcs, "number of processes (solver runs at k = t = n/2)")
	steps := intIn(fs, "steps", 100_000, 1, math.MaxInt, "step horizon per run")
	runs := intIn(fs, "runs", 32, 1, math.MaxInt, "number of runs (cycles through the crash-pattern population)")
	return func() (*plan, error) {
		// The solver is the kset target's: its lookup checks that Πkn fits.
		if _, err := explore.PooledTargetBuilder(explore.TargetKSet, *n); err != nil {
			return nil, err
		}
		return &plan{
			params: map[string]any{"n": *n, "steps": *steps, "runs": *runs},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (*campaign.Report, any, error) {
				rep, executed, err := explore.AdversarialPooledCampaign(ctx, c.workers, *n, *steps, *runs, c.seed, sink)
				if err != nil && rep != nil && len(rep.Failures) > 0 {
					err = &finding{fmt.Sprintf("FAILED after %d runs: %v", executed, err), errors.New("adversarial campaign failed")}
				}
				return rep, nil, err
			},
		}, nil
	}
}

// byzantineCmd sweeps the Byzantine degradation grid: (crash count × byz
// count × corruption strategy) cells against one workload, each cell
// classified safe/degraded/violated over its runs. Violated cells are data
// — the sweep exits 0 when it completes — and the matrix is invariant under
// -workers and -procs.
func byzantineCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	target := fs.String("target", explore.TargetConsensus, "workload: commitadopt|consensus|cachain|kset|bg|antiomega")
	n := intIn(fs, "n", 3, 2, procset.MaxProcs, "number of processes")
	crashRange := fs.String("crash", "0:1", "crash counts swept (value or lo:hi range)")
	byzRange := fs.String("byz", "0:1", "Byzantine counts swept (value or lo:hi range)")
	strategies := fs.String("strategies", "flip,stale,split", "comma-separated corruption strategies for byz ≥ 1 cells")
	runs := intIn(fs, "runs", 32, 1, math.MaxInt, "runs per cell (each draws its own fault population)")
	steps := intIn(fs, "steps", 100_000, 1, math.MaxInt, "step horizon per run")
	return func() (*plan, error) {
		crashLo, crashHi, err := parseRange(*crashRange)
		if err != nil {
			return nil, err
		}
		byzLo, byzHi, err := parseRange(*byzRange)
		if err != nil {
			return nil, err
		}
		// Build the target's rig now, as fuzz does, so a bad target or n is
		// a usage error; antiomega runs the kset target's detector.
		rigTarget := *target
		if rigTarget == explore.TargetAntiOmega {
			rigTarget = explore.TargetKSet
		}
		if _, err := explore.PooledTargetBuilder(rigTarget, *n); err != nil {
			return nil, err
		}
		if crashLo != 0 || byzLo != 0 {
			return nil, fmt.Errorf("byzantine: crash and byz ranges must start at 0 (the honest baseline anchors the matrix), got %s and %s", *crashRange, *byzRange)
		}
		var strats []adversary.Strategy
		for _, s := range strings.Split(*strategies, ",") {
			st, err := adversary.ParseStrategy(s)
			if err != nil {
				return nil, err
			}
			if st == adversary.StrategyNone {
				return nil, fmt.Errorf("byzantine: strategy \"none\" is implicit in the byz=0 cells; sweep real strategies")
			}
			strats = append(strats, st)
		}
		var cells []explore.ByzCell
		return &plan{
			params: map[string]any{
				"target": *target, "n": *n, "crash": crashHi, "byz": byzHi,
				"strategies": *strategies, "runs": *runs, "steps": *steps,
			},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (rep *campaign.Report, _ any, err error) {
				rep, cells, err = explore.ByzantineCampaign(ctx, explore.ByzConfig{
					Target: *target, N: *n, CrashMax: crashHi, ByzMax: byzHi, Strategies: strats,
					Runs: *runs, Steps: *steps, Seed: c.seed, Workers: c.workers,
				}, sink)
				return rep, cells, err
			},
			render: func(w io.Writer, _ *campaign.Report) {
				tb := trace.NewTable(
					fmt.Sprintf("Byzantine degradation matrix: %s, n=%d, %d runs/cell", *target, *n, *runs),
					"crash", "byz", "strategy", "safe", "degraded", "violated", "class")
				for _, cell := range cells {
					tb.AddRow(cell.Crash, cell.Byz, cell.Strategy, cell.Safe, cell.Degraded, cell.Violated, cell.Class)
				}
				fmt.Fprintln(w, tb.Render())
				for _, cell := range cells {
					if v := cell.Violation; v != nil {
						fmt.Fprintf(w, "cell c%d b%d %s first violation: %v\n", cell.Crash, cell.Byz, cell.Strategy, v.Err)
						if v.Trace != "" {
							fmt.Fprintln(w, v.Trace)
						}
						fmt.Fprint(w, v.Flight)
					}
				}
			},
		}, nil
	}
}

// netconvCmd sweeps detector convergence over graded link matrices: for
// each named msgnet matrix, many (schedule, delay) samples of the heartbeat
// Ω detector, tallying convergence, elected leaders, and the per-link
// grades an online obs.LinkMonitor extracted from the deliveries. The whole
// matrix is invariant under -workers and -procs.
func netconvCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	n := intIn(fs, "n", 4, 2, procset.MaxProcs, "number of processes (the mixed matrix needs ≥ 3)")
	matrices := fs.String("matrices", "", "comma-separated link matrices to sweep: sync,psync,async,mixed (empty = all)")
	delta := intIn(fs, "delta", 2, 0, math.MaxInt, "timely grades' delivery bound Δ")
	gst := intIn(fs, "gst", 0, 0, math.MaxInt, "partial-synchrony stabilization step (0 = steps/4)")
	probe := intIn(fs, "probe", 0, 0, math.MaxInt, "link monitor probe bound (0 = Δ + 3n(n−1), absorbing scheduling dilation)")
	wild := intIn(fs, "wild", 0, 0, math.MaxInt, "unbounded-regime delivery bound (0 = msgnet default)")
	runs := intIn(fs, "runs", 32, 1, math.MaxInt, "samples per matrix")
	steps := intIn(fs, "steps", 20_000, 1, math.MaxInt, "step horizon per run")
	return func() (*plan, error) {
		var names []string
		for _, m := range strings.Split(*matrices, ",") {
			if m = strings.TrimSpace(m); m != "" {
				// Δ and GST are already checked; this checks the name and
				// the mixed matrix's n ≥ 3.
				if _, _, err := msgnet.BuildMatrix(m, *n, 1, 0); err != nil {
					return nil, fmt.Errorf("-matrices: %v", err)
				}
				names = append(names, m)
			}
		}
		if len(names) == 0 && *n < 3 {
			return nil, fmt.Errorf("-n %d: the %s matrix needs n ≥ 3, so name the others with -matrices", *n, msgnet.MatrixMixed)
		}
		var cells []explore.NetCell
		return &plan{
			params: map[string]any{
				"n": *n, "matrices": strings.Join(names, ","), "delta": *delta, "gst": *gst,
				"probe": *probe, "wild": *wild, "runs": *runs, "steps": *steps,
			},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (rep *campaign.Report, _ any, err error) {
				rep, cells, err = explore.NetConvCampaign(ctx, explore.NetConvConfig{
					Matrices: names, N: *n, Delta: *delta, GST: *gst, Probe: *probe, Wild: *wild,
					Runs: *runs, Steps: *steps, Seed: c.seed, Workers: c.workers,
				}, sink)
				return rep, cells, err
			},
			render: func(w io.Writer, _ *campaign.Report) {
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
			},
		}, nil
	}
}

func convergeCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	n := fs.Int("n", 4, "system size n")
	k := fs.Int("k", 2, "detector parameter k")
	t := fs.Int("t", 2, "resilience t")
	bound := intIn(fs, "bound", 4, 1, math.MaxInt, "Definition 1 bound enforced by the generator")
	trials := intIn(fs, "trials", 32, 1, math.MaxInt, "independent trials")
	maxSteps := intIn(fs, "maxsteps", 2_000_000, 1, math.MaxInt, "step budget per trial")
	return func() (*plan, error) {
		if err := (antiomega.Config{N: *n, K: *k, T: *t}).Validate(); err != nil {
			return nil, err
		}
		return &plan{
			params: map[string]any{"n": *n, "k": *k, "t": *t, "bound": *bound, "trials": *trials, "maxsteps": *maxSteps},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (*campaign.Report, any, error) {
				rep, err := experiments.RunConvergenceSweep(ctx, experiments.ConvergenceConfig{
					N: *n, K: *k, T: *t, Bound: *bound, Trials: *trials, MaxSteps: *maxSteps, Workers: c.workers,
				}, c.seed, sink)
				return rep, nil, err
			},
			failed: "trials failed to converge or violated the property",
		}, nil
	}
}

func relationsCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	n := intIn(fs, "n", 4, 2, 6, "system size n")
	bound := intIn(fs, "bound", 4, 1, math.MaxInt, "Definition 1 bound tested")
	steps := intIn(fs, "steps", 2000, 1, math.MaxInt, "prefix length analyzed per schedule")
	schedules := intIn(fs, "schedules", 100, 1, math.MaxInt, "population size")
	gen := stringIn(fs, "gen", "mixed", "schedule generator", generators...)
	return func() (*plan, error) {
		return &plan{
			params: map[string]any{"n": *n, "bound": *bound, "steps": *steps, "schedules": *schedules, "gen": *gen},
			run: func(ctx context.Context, sink func(campaign.Outcome)) (*campaign.Report, any, error) {
				rep, err := experiments.RunRelationsCampaign(ctx, experiments.RelationsConfig{
					N: *n, Bound: *bound, Steps: *steps, Schedules: *schedules, Generator: *gen, Workers: c.workers,
				}, c.seed, sink)
				return rep, nil, err
			},
			render: func(w io.Writer, rep *campaign.Report) {
				s := rep.Summary
				tb := trace.NewTable(
					fmt.Sprintf("empirical timeliness relations over %d schedules (bound %d)", s.Completed, *bound),
					"system", "held", "fraction")
				for i := 1; i <= *n; i++ {
					for j := i; j <= *n; j++ {
						held := s.Tallies[experiments.RelationKey(i, j)]
						frac := 0.0
						if s.Completed > 0 {
							frac = float64(held) / float64(s.Completed)
						}
						tb.AddRow(fmt.Sprintf("S^%d_{%d,%d}", i, j, *n), held, fmt.Sprintf("%.2f", frac))
					}
				}
				fmt.Fprintln(w, tb.Render())
			},
			failed: "schedules failed their analysis",
		}, nil
	}
}

// generators are the -gen choices of relations and monitor.
var generators = []string{"random", "starver", "mixed"}

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
		// Random churn and adversarial starvation in 512-step segments:
		// the monitor sees regime changes within one run.
		return sched.Interleave(a, b, 512, 512)
	default:
		return nil, fmt.Errorf("unknown -gen %q (want random|starver|mixed)", gen)
	}
}

// monitorCmd runs the online timeliness-graph monitor over a generated
// schedule, printing the graph periodically and cross-checking the final
// state against the batch extractor on the retained schedule.
func monitorCmd(fs *flag.FlagSet, c *common) func() (*plan, error) {
	n := intIn(fs, "n", 4, 2, 6, "system size n (the monitor tracks the full S^i_{j,n} family)")
	gen := stringIn(fs, "gen", "mixed", "schedule generator", generators...)
	steps := intIn(fs, "steps", 4096, 1, math.MaxInt, "steps to observe")
	every := intIn(fs, "every", 1024, 0, math.MaxInt, "print the timeliness graph every E steps (0 = final only)")
	bound := intIn(fs, "bound", 4, 1, math.MaxInt, "Definition 1 bound probed by the graph")
	window := intIn(fs, "window", 0, 0, math.MaxInt, "length of the recent view, the graph of the last steps alone (0 = cumulative only)")
	return func() (*plan, error) {
		src, err := monitorSource(*gen, *n, c.seed)
		if err != nil {
			return nil, err
		}
		m, err := obs.NewMonitor(obs.MonitorConfig{N: *n})
		if err != nil {
			return nil, err
		}
		p := &plan{params: map[string]any{"n": *n, "gen": *gen, "every": *every, "bound": *bound, "window": *window}}
		p.direct = func(ctx context.Context, w io.Writer) error {
			if c.pprofAddr != "" {
				obs.Publish("monitor", func() any {
					return map[string]any{"steps": m.Steps(), "graph": m.Graph(*bound)}
				})
			}
			full := make(sched.Schedule, 0, *steps)
			printGraphs := func() {
				printGraph(w, fmt.Sprintf("timeliness graph after %d steps (bound %d)", m.Steps(), *bound), m.Graph(*bound), *n)
				if *window > 0 {
					printGraph(w, fmt.Sprintf("recent view: last %d steps (bound %d)", min(*window, len(full)), *bound), recentGraph(full, *window, *n, *bound), *n)
				}
			}
			// Feed the monitor in blocks (the bulk path the engines use),
			// retaining the full schedule so the final state can be
			// cross-checked below.
			var block [256]procset.ID
			nextPrint := *steps
			if *every > 0 {
				nextPrint = *every
			}
			for done := 0; done < *steps; {
				if ctx.Err() != nil {
					return fmt.Errorf("interrupted after %d steps", done)
				}
				k := min(len(block), *steps-done, nextPrint-done)
				sched.FillBlock(src, block[:k])
				m.ObserveBlock(block[:k])
				full = append(full, block[:k]...)
				done += k
				if done == nextPrint {
					if *every > 0 && !c.jsonOut {
						printGraphs()
						nextPrint += *every
					} else {
						nextPrint = *steps
					}
				}
			}
			// The online monitor must agree with the batch extractor on the
			// schedule it just observed; a mismatch is a bug, not a
			// measurement.
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
				}{Campaign: "monitor", Params: p.params, Seed: c.seed, Steps: m.Steps(), Graph: m.Graph(*bound)}
				if *window > 0 {
					out.Recent = recentGraph(full, *window, *n, *bound)
				}
				return json.NewEncoder(w).Encode(out)
			}
			if *every <= 0 || *steps%*every != 0 {
				printGraphs()
			}
			fmt.Fprintf(w, "monitor: %d steps observed, online state verified against the batch extractor\n", m.Steps())
			return nil
		}
		return p, nil
	}
}

// recentGraph is the timeliness graph of the last min(window, len(full))
// steps alone, by batch analysis of that tail.
func recentGraph(full sched.Schedule, window, n, bound int) []obs.SystemStatus {
	tail := full[len(full)-min(window, len(full)):]
	var graph []obs.SystemStatus
	for i := 1; i <= n; i++ {
		for j := i; j <= n; j++ {
			best := sched.BestPair(tail, n, i, j)
			graph = append(graph, obs.SystemStatus{I: i, J: j, Held: best.MinBound <= bound, Best: best,
				BestP: best.P.String(), BestQ: best.Q.String(), MinBound: best.MinBound})
		}
	}
	return graph
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
