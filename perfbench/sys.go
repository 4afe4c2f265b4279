package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// resources is one sample of the process counters the metrics derive from.
type resources struct {
	cpu        time.Duration // user + system CPU, from getrusage
	allocBytes uint64        // cumulative heap bytes allocated
	gcCycles   uint64
	gcCPU      float64 // CPU seconds the runtime spent in the collector
	totalCPU   float64 // CPU seconds available to the runtime since start
}

// resourceDelta is the difference of two samples.
type resourceDelta resources

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleResources() resources {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return resources{
		cpu:        cpuTime(),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (r resources) since(before resources) resourceDelta {
	return resourceDelta{
		cpu:        r.cpu - before.cpu,
		allocBytes: r.allocBytes - before.allocBytes,
		gcCycles:   r.gcCycles - before.gcCycles,
		gcCPU:      r.gcCPU - before.gcCPU,
		totalCPU:   r.totalCPU - before.totalCPU,
	}
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// envStamp describes where a number was measured: CPUs, scheduler and
// collector settings, toolchain, source revision and the workload seed.
func envStamp(o options) string {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	stamp := struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Nproc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Workers    int    `json:"campaign_workers"`
		CPU        string `json:"cpu"`
		Go         string `json:"go"`
		GOGC       int    `json:"gogc"`
		Commit     string `json:"commit"`
	}{o.workload, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), campaignWorkers, cpuModel(), runtime.Version(), gogc, commit}
	b, err := json.Marshal(stamp)
	if err != nil {
		return fmt.Sprintf("%+v", stamp)
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; q = 0.5 is the median.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailBeyond is how many calls lie beyond the tail percentile: ten, or all
// but one when there are fewer than eleven calls.
func tailBeyond(n int) int {
	if n <= 10 {
		return max(n-1, 0)
	}
	return 10
}

// tailLatency returns the highest percentile of xs that has ten values
// beyond it, and that percentile.
func tailLatency(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) - 1 - tailBeyond(len(s))
	return s[k], 100 * float64(k+1) / float64(len(s))
}

// verifier collects the correctness gate's checks. Each check compares an
// output with its expectation; with wrong set, the first check is compared
// against an expectation no output can meet instead.
type verifier struct {
	wrong    bool
	checks   int
	failures []string
}

// wrongExpectation equals no output.
type wrongExpectation struct{}

func (v *verifier) equal(what string, got, want any) {
	v.checks++
	if v.wrong && v.checks == 1 {
		want = wrongExpectation{}
	}
	if !reflect.DeepEqual(got, want) {
		v.failures = append(v.failures, fmt.Sprintf("%s: got %v, want %v", what, got, want))
	}
}

func (v *verifier) report(out io.Writer) {
	fmt.Fprintf(out, "gate: %d checks, %d failed\n", v.checks, len(v.failures))
	for _, f := range v.failures {
		fmt.Fprintf(out, "gate FAILED %s\n", f)
	}
}
