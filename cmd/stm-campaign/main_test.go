package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
)

// TestMain lets the test binary double as a stm-campaign worker process: the
// coordinator spawns os.Executable() with EnvWorker set and argv
// [exe, subcommand, flags...], exactly like the installed binary.
func TestMain(m *testing.M) {
	if os.Getenv(campaign.EnvWorker) == "1" {
		runWorker()
		return // unreachable: runWorker exits
	}
	os.Exit(m.Run())
}

func TestParseRange(t *testing.T) {
	t.Parallel()
	lo, hi, err := parseRange("2")
	if err != nil || lo != 2 || hi != 2 {
		t.Errorf("parseRange(2) = %d,%d,%v", lo, hi, err)
	}
	lo, hi, err = parseRange("1:3")
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("parseRange(1:3) = %d,%d,%v", lo, hi, err)
	}
	if _, _, err := parseRange("3:1"); err == nil {
		t.Error("empty range accepted")
	}
	if _, _, err := parseRange("x"); err == nil {
		t.Error("junk accepted")
	}
}

func TestParseCrashPatterns(t *testing.T) {
	t.Parallel()
	patterns, err := parseCrashPatterns("p1@3;p2@0,p4@9")
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 2 || patterns[0][1] != 3 || patterns[1][2] != 0 || patterns[1][4] != 9 {
		t.Errorf("patterns = %v", patterns)
	}
	if got, err := parseCrashPatterns(""); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v", got, err)
	}
	if _, err := parseCrashPatterns("p1=3"); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestMatrixCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := cmdMatrix(context.Background(), []string{"-t", "1", "-k", "1", "-n", "2",
		"-posbudget", "500000", "-negbudget", "20000", "-workers", "2", "-json"}, &out)
	if err != nil {
		t.Fatalf("matrix campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Campaign != "matrix" || rec.Summary.Jobs != 3 || rec.Summary.Failed != 0 {
		t.Errorf("record = %+v", rec)
	}
}

func TestFuzzCampaignSmokeWithJSONL(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "fuzz.jsonl")
	var out bytes.Buffer
	err := cmdFuzz(context.Background(), []string{"-target", "commitadopt", "-n", "3", "-steps", "60",
		"-schedules", "40", "-crashes", "p1@3", "-workers", "2", "-json", "-jsonl", path}, &out)
	if err != nil {
		t.Fatalf("fuzz campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Summary.Tallies["runs"] != 40 {
		t.Errorf("runs = %d, want 40", rec.Summary.Tallies["runs"])
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			t.Errorf("non-JSON line: %s", sc.Text())
		}
		lines++
	}
	if lines != rec.Summary.Completed {
		t.Errorf("jsonl lines = %d, completed = %d", lines, rec.Summary.Completed)
	}
}

func TestConvergeCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := cmdConverge(context.Background(), []string{"-n", "3", "-k", "1", "-t", "1", "-trials", "3", "-workers", "2", "-json"}, &out)
	if err != nil {
		t.Fatalf("converge campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Summary.Verdicts["stable"] != 3 {
		t.Errorf("verdicts = %v", rec.Summary.Verdicts)
	}
}

func TestAdversarialCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := cmdAdversarial(context.Background(), []string{"-n", "3", "-runs", "6", "-steps", "20000", "-workers", "2", "-json"}, &out)
	if err != nil {
		t.Fatalf("adversarial campaign failed: %v\noutput: %s", err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	if rec.Summary.Tallies["starved"] != 6 {
		t.Errorf("tallies = %v, want 6 starved runs", rec.Summary.Tallies)
	}
}

func TestRelationsCampaignSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := cmdRelations(context.Background(), []string{"-n", "3", "-steps", "200", "-schedules", "8", "-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("relations campaign failed: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "S^1_{1,3}") {
		t.Errorf("relations table missing:\n%s", out.String())
	}
}

// TestFuzzEnginesBitIdentical drives the fuzz subcommand end to end: the
// -json summary must be identical at -workers 1 and 4 for every target.
// (explore.TestFuzzModesBitIdentical pins the pooled runs against fresh
// coroutine runs per schedule.)
func TestFuzzEnginesBitIdentical(t *testing.T) {
	t.Parallel()
	summary := func(target, workers string) string {
		var out bytes.Buffer
		err := cmdFuzz(context.Background(), []string{"-target", target, "-n", "3", "-steps", "80",
			"-schedules", "24", "-seed", "3", "-workers", workers, "-json"}, &out)
		if err != nil {
			t.Fatalf("%s/workers=%s: %v\n%s", target, workers, err, out.String())
		}
		var rec record
		if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		s, err := json.Marshal(rec.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return string(s)
	}
	for _, target := range []string{"commitadopt", "consensus", "cachain", "kset", "bg"} {
		if one, four := summary(target, "1"), summary(target, "4"); one != four {
			t.Errorf("%s: workers=4 diverges from workers=1:\n%s\nvs\n%s", target, four, one)
		}
	}
}

// TestCampaignJSONDeterministicAcrossWorkers drives the CLI end to end: the
// -json summary (elapsed stripped) must be identical at -workers 1 and 8.
func TestCampaignJSONDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	summary := func(workers string) string {
		var out bytes.Buffer
		err := cmdRelations(context.Background(), []string{"-n", "3", "-steps", "200", "-schedules", "10",
			"-seed", "5", "-workers", workers, "-json"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		s, err := json.Marshal(rec.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return string(s)
	}
	if s1, s8 := summary("1"), summary("8"); s1 != s8 {
		t.Errorf("summaries differ:\nworkers=1: %s\nworkers=8: %s", s1, s8)
	}
}

func TestMonitorSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	// Non-multiple of -every exercises both the periodic and the final print;
	// the command itself cross-checks the monitor against the batch extractor
	// and fails on any mismatch.
	err := cmdMonitor(context.Background(), []string{"-n", "4", "-steps", "1500", "-every", "700", "-window", "128", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified against the batch extractor") {
		t.Fatalf("missing verification line in output:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "timeliness graph after"); got != 3 {
		t.Fatalf("got %d periodic graphs, want 3 (after 700, 1400, 1500)", got)
	}
}

func TestMonitorJSON(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := cmdMonitor(context.Background(), []string{"-n", "3", "-gen", "random", "-steps", "600", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Campaign string `json:"campaign"`
		Steps    int    `json:"steps"`
		Graph    []struct {
			I        int `json:"i"`
			J        int `json:"j"`
			MinBound int `json:"min_bound"`
		} `json:"graph"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rec.Campaign != "monitor" || rec.Steps != 600 || len(rec.Graph) != 6 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestMonitorRejectsBadFlags(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := cmdMonitor(context.Background(), []string{"-n", "7"}, &out); err == nil {
		t.Error("n=7 accepted (full family tracking is bounded at 6)")
	}
	if err := cmdMonitor(context.Background(), []string{"-gen", "bogus"}, &out); err == nil {
		t.Error("bogus generator accepted")
	}
}

// fuzzSummary runs cmdFuzz with the given extra flags prepended to a fixed
// base invocation and returns the marshaled -json Summary (deterministic:
// no wall-clock fields).
func fuzzSummary(t *testing.T, extra ...string) string {
	t.Helper()
	base := []string{"-target", "consensus", "-n", "3", "-steps", "60",
		"-schedules", "30", "-seed", "7", "-workers", "4", "-json"}
	var out bytes.Buffer
	err := cmdFuzz(context.Background(), append(extra, base...), &out)
	if err != nil {
		t.Fatalf("cmdFuzz(%v): %v\n%s", extra, err, out.String())
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("non-JSON output: %v\n%s", err, out.String())
	}
	s, err := json.Marshal(rec.Summary)
	if err != nil {
		t.Fatal(err)
	}
	return string(s)
}

// TestFuzzCheckpointCrashResume is the tentpole end to end at the CLI layer:
// a chaos-crashed coordinator leaves a usable checkpoint (surfaced as
// InterruptedError), and the -resume rerun produces the same summary and the
// same -jsonl stream, byte for byte, as an uninterrupted run.
func TestFuzzCheckpointCrashResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plainJSONL := filepath.Join(dir, "plain.jsonl")
	want := fuzzSummary(t, "-jsonl", plainJSONL)

	ck := filepath.Join(dir, "ck.jsonl")
	base := []string{"-target", "consensus", "-n", "3", "-steps", "60",
		"-schedules", "30", "-seed", "7", "-workers", "4", "-json"}
	var out bytes.Buffer
	err := cmdFuzz(context.Background(), append([]string{"-checkpoint", ck, "-chaos", "trunc@9"}, base...), &out)
	var ie *campaign.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("chaos run returned %v, want InterruptedError", err)
	}
	if !ie.Injected || ie.Checkpoint != ck {
		t.Fatalf("InterruptedError = %+v", ie)
	}

	resumedJSONL := filepath.Join(dir, "resumed.jsonl")
	got := fuzzSummary(t, "-checkpoint", ck, "-resume", "-jsonl", resumedJSONL)
	if got != want {
		t.Errorf("resumed summary diverges:\n%s\nvs\n%s", got, want)
	}
	a, err := os.ReadFile(plainJSONL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumedJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("resumed -jsonl stream is not byte-identical to the plain run (%d vs %d bytes)", len(a), len(b))
	}
}

// TestFuzzSelfHealingBitIdentical: worker kills and stalled jobs are healed
// by the coordinator (requeue + respawn) without changing the aggregate.
func TestFuzzSelfHealingBitIdentical(t *testing.T) {
	t.Parallel()
	want := fuzzSummary(t)
	got := fuzzSummary(t, "-chaos", "kill@5;stall@3~400ms", "-lease", "120ms", "-retries", "4")
	if got != want {
		t.Errorf("chaos-healed summary diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestFuzzProcWorkersBitIdentical dispatches to child worker processes (the
// test binary re-exec'd via TestMain) and must match the in-process run.
func TestFuzzProcWorkersBitIdentical(t *testing.T) {
	t.Parallel()
	want := fuzzSummary(t)
	got := fuzzSummary(t, "-procs", "2")
	if got != want {
		t.Errorf("-procs 2 summary diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestFuzzProcWorkersSurviveKills: a fault plan that repeatedly kills child
// processes mid-campaign still converges to the same summary.
func TestFuzzProcWorkersSurviveKills(t *testing.T) {
	t.Parallel()
	want := fuzzSummary(t)
	got := fuzzSummary(t, "-procs", "2", "-chaos", "kill@4", "-lease", "10s")
	if got != want {
		t.Errorf("killed-proc summary diverges:\n%s\nvs\n%s", got, want)
	}
}

func TestResilienceFlagValidation(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := cmdFuzz(context.Background(), []string{"-resume", "-schedules", "4"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("-resume without -checkpoint: %v", err)
	}
	err = cmdFuzz(context.Background(), []string{"-chaos", "explode@3", "-schedules", "4"}, &out)
	if err == nil {
		t.Error("bad -chaos plan accepted")
	}
	err = cmdExhaustive(context.Background(), []string{"-checkpoint", filepath.Join(t.TempDir(), "ck"), "-depth", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-reduce=false") {
		t.Errorf("reduced exhaustive with -checkpoint: %v", err)
	}
}

func TestResumeCommand(t *testing.T) {
	old := os.Args
	defer func() { os.Args = old }()
	os.Args = []string{"stm-campaign", "fuzz", "-checkpoint", "ck.jsonl"}
	if got, want := resumeCommand(), "stm-campaign fuzz -checkpoint ck.jsonl -resume"; got != want {
		t.Errorf("resumeCommand() = %q, want %q", got, want)
	}
	os.Args = []string{"stm-campaign", "fuzz", "-checkpoint", "ck.jsonl", "-resume"}
	if got := resumeCommand(); strings.Count(got, "-resume") != 1 {
		t.Errorf("resumeCommand() duplicated -resume: %q", got)
	}
}

func TestCheckDegraded(t *testing.T) {
	t.Parallel()
	if err := checkDegraded(&campaign.Report{}); err != nil {
		t.Errorf("clean report flagged degraded: %v", err)
	}
	rep := &campaign.Report{Quarantined: []campaign.QuarantineRecord{
		{Job: 3, Name: "poison", Attempts: 4, LastErr: "lease expired after 30ms (attempt 3)"},
	}}
	err := checkDegraded(rep)
	var de *degradedError
	if !errors.As(err, &de) {
		t.Fatalf("checkDegraded = %v, want degradedError", err)
	}
	for _, frag := range []string{"quarantined", "job 3", "poison", "lease expired"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("degraded message lacks %q: %s", frag, err)
		}
	}
}

// A campaign run with -pprof brings the debug endpoints up for its duration
// and shuts them down on exit; the run result must be unaffected.
func TestPprofFlagSmoke(t *testing.T) {
	var plain, instrumented bytes.Buffer
	args := []string{"-n", "3", "-schedules", "6", "-steps", "200", "-json"}
	if err := cmdRelations(context.Background(), args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := cmdRelations(context.Background(), append([]string{"-pprof", "127.0.0.1:0"}, args...), &instrumented); err != nil {
		t.Fatal(err)
	}
	var p, i map[string]json.RawMessage
	if err := json.Unmarshal(plain.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(instrumented.Bytes(), &i); err != nil {
		t.Fatal(err)
	}
	if string(p["summary"]) != string(i["summary"]) {
		t.Fatalf("-pprof changed the summary:\n%s\n%s", p["summary"], i["summary"])
	}
}
