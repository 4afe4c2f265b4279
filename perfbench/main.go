// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop from a single client: one in-process campaign
// call at a time, back to back, for a fixed number of seconds. It then
// checks the outputs outside the timed region and prints the end-to-end
// metrics. With -trace 1 it instead rebuilds the same calls from the layers'
// public functions, records a span around each layer call, and prints the
// per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the surrounding source tree.
// README.md explains the workloads, the metrics and the trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The load is one client with one campaign worker, at GOMAXPROCS
// min(2, nproc): at GOMAXPROCS 1 the collector's pacing, and with it peak
// RSS, varied from run to run (see README.md).
const (
	campaignWorkers = 1
	maxProcs        = 2
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	outDir   string
	// expectWrong makes every gate compare its first check against an
	// expectation no output can meet; the self-test uses it to show that the
	// gate fails.
	expectWrong bool
	// failRun, when positive, makes a workload that supports it fail the
	// check of that run of every call; the self-test uses it to show that
	// failed runs are counted.
	failRun int
}

// failureInjector is a workload that can fail a run's check on purpose.
type failureInjector interface{ injectFailure(run int) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the benchmark and returns the process exit code: 0 when the
// outputs were correct, 1 when a check failed or the run broke, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d runs failed their correctness check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds the closed loop measures")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.IntVar(&o.setups, "setups", 5, "set-ups per run; setup_s is their median")
	fs.StringVar(&o.outDir, "out", "", "directory for the span dump of a traced run (empty: no dump)")
	fs.BoolVar(&o.expectWrong, "expect-wrong", false, "self-test hook: gate against a wrong expectation, which must fail")
	fs.IntVar(&o.failRun, "fail-run", 0, "self-test hook: fail the check of this run of every call (fuzz only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := specs[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 || o.setups < 1 {
		return o, fmt.Errorf("-seconds and -setups must be positive")
	}
	if o.failRun > 0 && o.workload != "fuzz" {
		return o, fmt.Errorf("-fail-run applies to the fuzz workload only")
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execute sets the workload up several times, then runs either the timed
// closed loop and the correctness gate, or the traced run.
func execute(ctx context.Context, o options, out io.Writer) (result, error) {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	sp := specs[o.workload]
	fmt.Fprintf(out, "perfbench %s: %s\n", o.workload, sp.why)
	fmt.Fprintf(out, "env %s\n", envStamp(o))

	// Set-up: build inputs and pools, then one warm-up call, timed like the
	// calls (see calib.go). The first set-up counts from process start;
	// setup_s is the median of all.
	var (
		w      workload
		setups []float64
	)
	speed := newSpeedMeter()
	m0 := processStart
	var setupCalls []callSample
	for k := 0; k < o.setups; k++ {
		var err error
		if w, err = sp.setup(o.seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if o.failRun > 0 {
			w.(failureInjector).injectFailure(o.failRun)
		}
		if _, err := w.call(ctx, 0, campaignWorkers); err != nil {
			return result{}, fmt.Errorf("warm-up call: %w", err)
		}
		setupCalls = append(setupCalls, m0.until(now(), callStats{}))
		speed.sample()
		m0 = now()
	}
	speed.scale(setupCalls, len(setupCalls))
	for _, c := range setupCalls {
		setups = append(setups, c.elapsed().Seconds())
	}
	fmt.Fprintf(out, "setup: %d set-ups, %s reference s\n", len(setups), formatFloats(setups))
	if o.trace {
		return traceRun(ctx, o, w, out)
	}

	seconds := time.Duration(o.seconds * float64(time.Second))
	ls, err := timedLoop(ctx, w, seconds)
	if err != nil {
		return result{}, err
	}
	// Peak RSS is read before the gate, whose own campaigns may run two
	// workers at once and would otherwise set the peak.
	peakRSS := peakRSSMiB()
	v := &verifier{wrong: o.expectWrong}
	if err := w.gate(ctx, v, campaignWorkers); err != nil {
		return result{}, fmt.Errorf("gate: %w", err)
	}
	v.report(out)

	attempted := ls.runs + int64(v.checks)
	failed := ls.failed + int64(len(v.failures))
	lats := make([]float64, len(ls.calls))
	for i, c := range ls.calls {
		lats[i] = ms(c.elapsed())
	}
	tail, tailPct := tailLatency(lats)
	e2e := []namedMetric{
		{"runs_per_s", ls.runsPerSecond(), "runs/s"},
		{"steps_per_s", ls.perCycle(func(c callSample) float64 { return float64(c.steps) / 1e6 }, elapsedSeconds), "Msteps/s"},
		{"call_p50_ms", quantile(lats, 0.5), "ms"},
		{"call_tail_ms", tail, "ms"},
		{"cpu_s_per_krun", ls.perCycle(func(c callSample) float64 { return c.cpu.Seconds() / c.speed * 1000 }, callRuns), "s"},
		{"alloc_kb_per_run", float64(ls.res.allocBytes) / float64(ls.runs) / 1024, "KiB"},
		{"peak_rss_mb", peakRSS, "MiB"},
		{"setup_s", quantile(setups, 0.5), "s"},
	}
	// failed_runs_frac is printed here with the rest; the result line
	// carries it as the failed and attempted counts.
	failedFrac := namedMetric{"failed_runs_frac", float64(failed) / float64(attempted), "ratio"}
	fmt.Fprintf(out, "loop: %d calls (%d cycles of %d), %d runs, %d steps in %.3f s, %d campaign workers\n",
		len(ls.calls), len(ls.calls)/ls.cycle, ls.cycle, ls.runs, ls.steps, ls.wall.Seconds(), campaignWorkers)
	var steal time.Duration
	for _, c := range ls.calls {
		steal += c.steal
	}
	fmt.Fprintf(out, "speed samples: %d, quartiles %.4f %.4f %.4f; steal %.2f%% of wall time; unscaled: %.6g runs per wall second, %.6g per CPU second\n",
		len(ls.speeds), quantile(ls.speeds, 0.25), quantile(ls.speeds, 0.5), quantile(ls.speeds, 0.75), 100*steal.Seconds()/ls.wall.Seconds(),
		float64(ls.runs)/ls.wall.Seconds(), float64(ls.runs)/ls.res.cpu.Seconds())
	for _, m := range append(e2e, failedFrac) {
		fmt.Fprintf(out, "metric %-18s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "call_tail_ms is p%.2f of %d calls (%d calls beyond it)\n", tailPct, len(lats), tailBeyond(len(lats)))
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   toMetrics(e2e),
	}, nil
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func toMetrics(ms []namedMetric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return out
}

// mark is one reading of the clocks a call is timed with.
type mark struct {
	wall  time.Time
	cpu   time.Duration // user+system CPU time of the process
	steal time.Duration // time withheld from a virtual CPU (see calib.go)
}

// processStart is read as the process initialises.
var processStart = now()

func now() mark { return mark{wall: time.Now(), cpu: cpuTime(), steal: stealTime()} }

// until is the interval from m to e as the sample of a call that did cs.
func (m mark) until(e mark, cs callStats) callSample {
	return callSample{wall: e.wall.Sub(m.wall), cpu: e.cpu - m.cpu, steal: e.steal - m.steal,
		runs: cs.runs, steps: cs.steps}
}

// callSample is one timed call.
type callSample struct {
	wall, cpu, steal time.Duration
	speed            float64 // speed factor of the call's block (see calib.go)
	runs, steps      int64
}

// elapsed is the call's wall time less steal, in reference time.
func (c callSample) elapsed() time.Duration {
	return time.Duration(float64(max(c.wall-c.steal, 0)) / c.speed)
}

func elapsedSeconds(c callSample) float64 { return c.elapsed().Seconds() }
func callRuns(c callSample) float64       { return float64(c.runs) }

// loopStats is what the timed closed loop measured.
type loopStats struct {
	calls               []callSample
	speeds              []float64 // the loop's speed samples
	cycle               int
	runs, steps, failed int64
	wall                time.Duration
	res                 resourceDelta
	// digests holds each call's output digest, by call index.
	digests []string
}

// perCycle is the median over cycles of sum(num) / sum(den) over each
// cycle's calls. Taking the median over cycles keeps a burst of
// interference to one sample instead of the whole run's figure.
func (ls loopStats) perCycle(num, den func(callSample) float64) float64 {
	var xs []float64
	for lo := 0; lo+ls.cycle <= len(ls.calls); lo += ls.cycle {
		var n, d float64
		for _, c := range ls.calls[lo : lo+ls.cycle] {
			n += num(c)
			d += den(c)
		}
		xs = append(xs, n/d)
	}
	return quantile(xs, 0.5)
}

func (ls loopStats) runsPerSecond() float64 { return ls.perCycle(callRuns, elapsedSeconds) }

// timedLoop issues calls back to back until seconds have passed, stopping
// only at a cycle boundary so every input class is equally represented.
// The calibration kernel runs between calls, outside their timing.
func timedLoop(ctx context.Context, w workload, seconds time.Duration) (loopStats, error) {
	ls := loopStats{cycle: w.cycle()}
	speed := newSpeedMeter()
	before := sampleResources()
	start := time.Now()
	for i := 0; i%ls.cycle != 0 || time.Since(start) < seconds; i++ {
		m0 := now()
		cs, err := w.call(ctx, i, campaignWorkers)
		m := now()
		if err != nil {
			return ls, fmt.Errorf("call %d: %w", i, err)
		}
		ls.calls = append(ls.calls, m0.until(m, cs))
		speed.sample()
		ls.runs += cs.runs
		ls.steps += cs.steps
		ls.failed += cs.failed
		ls.digests = append(ls.digests, cs.digest)
	}
	ls.wall = time.Since(start)
	speed.scale(ls.calls, speedBlock(ls.cycle))
	ls.speeds = speed.samples
	ls.res = sampleResources().since(before)
	return ls, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
