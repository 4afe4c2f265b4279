package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// declared reads the metrics BENCHMARK.json declares, by name -> unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runBench runs the benchmark in-process on a tiny budget and returns its
// exit code, its output and the parsed result line.
func runBench(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-seconds", "0.2", "-setups", "1"}, args...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, out.String(), res
}

// checkMetrics requires exactly the declared metrics, each with its unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: undeclared metric %s", what, name)
		}
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			code, out, res := runBench(t, "-workload", name, "-seed", "3", "-trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: exit %d, result %+v\n%s", code, res, out)
			}
			checkMetrics(t, name+" untraced", res.Metrics, endToEnd)
			for m := range endToEnd {
				if !strings.Contains(out, "metric "+m+" ") {
					t.Errorf("untraced output lacks the line for %s", m)
				}
			}
			if !strings.Contains(out, "metric failed_runs_frac ") || !strings.Contains(out, "env {") {
				t.Errorf("untraced output lacks failed_runs_frac or the environment stamp:\n%s", out)
			}

			code, out, res = runBench(t, "-workload", name, "-seed", "3", "-trace", "1")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: exit %d, result %+v\n%s", code, res, out)
			}
			checkMetrics(t, name+" traced", res.Metrics, perLayer)
			for _, want := range []string{"trace unattributed", "tracing overhead:"} {
				if !strings.Contains(out, want) {
					t.Errorf("traced output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestGateFailsOnWrongExpectation(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			code, out, res := runBench(t, "-workload", name, "-seed", "3", "-trace", "0", "-expect-wrong")
			if code != 1 || res.Correct || res.Failed < 1 {
				t.Fatalf("gate passed against a wrong expectation: exit %d, result %+v\n%s", code, res, out)
			}
			if !strings.Contains(out, "gate FAILED") {
				t.Errorf("output names no failed check:\n%s", out)
			}
		})
	}
}

// TestFailedRunsAreCounted fails the fifth run of every fuzz call. Each call
// then stops at that run, so the loop must count one failed run per call,
// and the gate's pooled replays, which fail the same way, must disagree
// with the coroutine path once per target.
func TestFailedRunsAreCounted(t *testing.T) {
	code, out, res := runBench(t, "-workload", "fuzz", "-seed", "3", "-trace", "0", "-fail-run", "5")
	var calls, checks, gateFailed int
	var frac float64
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "loop: "):
			fmt.Sscanf(line, "loop: %d calls", &calls)
		case strings.HasPrefix(line, "gate: "):
			fmt.Sscanf(line, "gate: %d checks, %d failed", &checks, &gateFailed)
		case strings.HasPrefix(line, "metric failed_runs_frac "):
			fmt.Sscanf(strings.Fields(line)[2], "%g", &frac)
		}
	}
	if code != 1 || res.Correct || calls == 0 || gateFailed != len(fuzzTargets) || res.Failed != int64(calls+gateFailed) {
		t.Fatalf("exit %d, result %+v, %d calls, %d failed gate checks; want %d failed\n%s",
			code, res, calls, gateFailed, calls+len(fuzzTargets), out)
	}
	if frac <= 0 {
		t.Errorf("failed_runs_frac reads %g, want above 0:\n%s", frac, out)
	}
}

func TestFold(t *testing.T) {
	r, err := newRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	call := r.begin("call", noSpan, noSpan)
	a := r.begin("a", call, 0)
	r.end(a)
	b := r.begin("b", call, 1)
	r.end(b)
	r.end(call)
	// Place the spans exactly: call [10,100], a [20,40], b [30,60].
	r.spans[call].start, r.spans[call].end = 10, 100
	r.spans[a].start, r.spans[a].end = 20, 40
	r.spans[b].start, r.spans[b].end = 30, 60
	f := r.fold(0, 120)
	if got := f.stat("call").self; got != 50 {
		t.Errorf("call self = %d, want 90 - union([20,40],[30,60]) = 50", got)
	}
	if got := f.stat("a").self; got != 20 {
		t.Errorf("a self = %d, want 20", got)
	}
	if f.unattributed != 30 {
		t.Errorf("unattributed = %d, want 120 - 90 = 30", f.unattributed)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fuzz", "-trace", "2"},
		{"-workload", "fuzz", "-seconds", "0"},
		{"-workload", "matrix", "-fail-run", "3"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if strings.Contains(out.String(), "{") {
		t.Errorf("a usage error printed a result: %s", out.String())
	}
}
