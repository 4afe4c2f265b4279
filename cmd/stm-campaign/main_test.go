package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
	err := execute(context.Background(), "matrix", []string{"-t", "1", "-k", "1", "-n", "2",
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
	err := execute(context.Background(), "fuzz", []string{"-target", "commitadopt", "-n", "3", "-steps", "60",
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
	err := execute(context.Background(), "converge", []string{"-n", "3", "-k", "1", "-t", "1", "-trials", "3", "-workers", "2", "-json"}, &out)
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
	err := execute(context.Background(), "adversarial", []string{"-n", "3", "-runs", "6", "-steps", "20000", "-workers", "2", "-json"}, &out)
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
	err := execute(context.Background(), "relations", []string{"-n", "3", "-steps", "200", "-schedules", "8", "-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("relations campaign failed: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "S^1_{1,3}") {
		t.Errorf("relations table missing:\n%s", out.String())
	}
}

// A relations job that fails (a panicking analysis is one) makes the
// subcommand exit 1 instead of printing a summary and exiting 0.
func TestRelationsFailedJobsExitError(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("relations", flag.ContinueOnError)
	var c common
	p, err := relationsCmd(fs, &c)()
	if err != nil {
		t.Fatal(err)
	}
	rep := &campaign.Report{Summary: campaign.Summary{Jobs: 2, Completed: 2, Ok: 0, Failed: 2}}
	if code := exitCode("stm-campaign", p.verdict(rep)); code != exitError {
		t.Errorf("relations with 2 failed jobs: exit %d, want %d", code, exitError)
	}
}

// requireUsageErrors runs each argv (the subcommand first), with a -jsonl
// file in dir for a campaign subcommand, and requires a usage error (exit
// 2) that printed nothing on stdout and left no file in dir.
func requireUsageErrors(t *testing.T, dir string, argvs ...[]string) {
	t.Helper()
	for _, argv := range argvs {
		args := slices.Clone(argv[1:])
		if i := slices.IndexFunc(commands, func(cmd *subcommand) bool { return cmd.name == argv[0] }); i >= 0 && !commands[i].standalone {
			args = append(args, "-jsonl", filepath.Join(dir, "out.jsonl"))
		}
		var out bytes.Buffer
		err := execute(context.Background(), argv[0], args, &out)
		if code := exitCode("stm-campaign", err); code != exitUsage {
			t.Errorf("%v: exit %d (%v), want %d", argv, code, err, exitUsage)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a report:\n%s", argv, out.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%v wrote %d file(s)", argv, len(entries))
		}
	}
}

// flagSet registers cmd's flags on a fresh flag set, as execute does.
func flagSet(cmd *subcommand) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	var c common
	c.register(fs, cmd.standalone)
	cmd.flags(fs, &c)
	return fs
}

// TestFlagDomains walks every subcommand's flag set and tries each flag
// with a declared domain just outside it: one below its minimum and, where
// it has a maximum, one above; a string flag with declared choices, a value
// outside them. fs.Parse must reject each before any side effect. Every -n
// declares the range its library accepts, and every -gen its generators.
func TestFlagDomains(t *testing.T) {
	t.Parallel()
	wantN := map[string]string{
		"fuzz": "in 1..64", "exhaustive": "in 1..4", "relations": "in 2..6", "monitor": "in 2..6",
		"adversarial": "in 2..64", "byzantine": "in 2..64", "netconv": "in 2..64",
	}
	dir := t.TempDir()
	for _, cmd := range commands {
		base := campaignArgs[cmd.name]
		if cmd.standalone {
			base = []string{"-steps", "64"}
		}
		var bounded []string
		flagSet(cmd).VisitAll(func(f *flag.Flag) {
			if _, ok := f.Value.(*stringChoice); ok {
				bounded = append(bounded, f.Name)
				requireUsageErrors(t, dir, slices.Concat([]string{cmd.name}, base, []string{"-" + f.Name, "bogus"}))
			}
			r, ok := f.Value.(*intRange)
			if !ok {
				return
			}
			bounded = append(bounded, f.Name)
			if f.Name == "n" && r.domain() != wantN[cmd.name] {
				t.Errorf("%s -n declares %s, want %s", cmd.name, r.domain(), wantN[cmd.name])
			}
			bad := []int{r.lo - 1}
			if r.hi != math.MaxInt {
				bad = append(bad, r.hi+1)
			}
			for _, v := range bad {
				requireUsageErrors(t, dir, slices.Concat([]string{cmd.name}, base, []string{"-" + f.Name, strconv.Itoa(v)}))
			}
		})
		if _, ok := wantN[cmd.name]; ok && !slices.Contains(bounded, "n") {
			t.Errorf("%s -n declares no domain", cmd.name)
		}
		if (cmd.name == "relations" || cmd.name == "monitor") && !slices.Contains(bounded, "gen") {
			t.Errorf("%s -gen declares no domain", cmd.name)
		}
		if !cmd.standalone {
			for _, name := range []string{"workers", "progress", "flight", "procs"} {
				if !slices.Contains(bounded, name) {
					t.Errorf("%s -%s declares no domain", cmd.name, name)
				}
			}
		}
	}
}

// TestFlagProbesRejected: a bad flag that no single domain catches (a
// name, a spec, flags that constrain each other) is a usage error too,
// caught by the plan's prepare step before any side effect. So is every
// probe that once panicked, exited 1 after creating the -jsonl file, or
// was accepted silently.
func TestFlagProbesRejected(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	requireUsageErrors(t, dir,
		[]string{"converge", "-n", "3", "-k", "3", "-t", "1"},
		[]string{"matrix", "-t", "3:1"},
		[]string{"matrix", "-k", "x"},
		[]string{"matrix", "-t", "4", "-k", "1", "-n", "3"},
		[]string{"fuzz", "-target", "bogus"},
		[]string{"fuzz", "-crashes", "p1=3"},
		[]string{"exhaustive", "-depth", "3"}, // the reduced sweep writes no -jsonl
		[]string{"byzantine", "-crash", "5"},
		[]string{"byzantine", "-byz", "1:2"},
		[]string{"byzantine", "-strategies", "flip,none"},
		[]string{"netconv", "-n", "2"}, // the mixed matrix, implied by no -matrices
		[]string{"netconv", "-n", "2", "-matrices", "mixed"},
		[]string{"netconv", "-matrices", "bogus"},
		[]string{"netconv", "-matrices", "sync,bogus"},
		[]string{"monitor", "-gen", "foo"},
		// monitor runs no campaign: campaign flags are rejected, not ignored.
		[]string{"monitor", "-checkpoint", filepath.Join(dir, "ck")},
		[]string{"monitor", "-jsonl", filepath.Join(dir, "m.jsonl")},
		[]string{"monitor", "-procs", "2"},
		[]string{"monitor", "-workers", "2"},
		// Once a panic, a late exit 1, or silently accepted.
		[]string{"fuzz", "-procs", "-1"},
		[]string{"fuzz", "-n", "0"},
		[]string{"fuzz", "-n", "65"},
		[]string{"adversarial", "-n", "1"},
		[]string{"relations", "-n", "7"},
		[]string{"fuzz", "-workers", "-3"},
		[]string{"fuzz", "-progress", "-1"},
		[]string{"fuzz", "-flight", "-1"},
		[]string{"byzantine", "-target", "nope"},
		[]string{"byzantine", "-target", "bg", "-n", "63"},
		[]string{"relations", "-n", "3", "-gen", "bogus"},
		// Πkn over antiomega's cap: once a makeslice panic, or (adversarial)
		// an enumeration of every crash set of up to 31 processes.
		[]string{"fuzz", "-target", "kset", "-n", "64"},
		[]string{"byzantine", "-target", "kset", "-n", "64"},
		[]string{"byzantine", "-target", "antiomega", "-n", "64"},
		[]string{"converge", "-n", "64", "-k", "32", "-t", "32"},
		[]string{"adversarial", "-n", "64"},
	)
}

// A fuzz job that fails (a panicking run is one) makes the subcommand exit
// 1 instead of printing a summary and exiting 0.
func TestFuzzFailedJobsExitError(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	var c common
	p, err := fuzzCmd(fs, &c)()
	if err != nil {
		t.Fatal(err)
	}
	rep := &campaign.Report{Summary: campaign.Summary{Jobs: 3, Completed: 3, Ok: 0, Failed: 3}}
	if code := exitCode("stm-campaign", p.verdict(rep)); code != exitError {
		t.Errorf("fuzz with 3 failed jobs: exit %d, want %d", code, exitError)
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
		err := execute(context.Background(), "fuzz", []string{"-target", target, "-n", "3", "-steps", "80",
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
		err := execute(context.Background(), "relations", []string{"-n", "3", "-steps", "200", "-schedules", "10",
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
	err := execute(context.Background(), "monitor", []string{"-n", "4", "-steps", "1500", "-every", "700", "-window", "128", "-seed", "3"}, &out)
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
	if err := execute(context.Background(), "monitor", []string{"-n", "3", "-gen", "random", "-steps", "600", "-json"}, &out); err != nil {
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

// campaignArgs are small invocations of every campaign subcommand; a
// subcommand added to the table without one fails the TestEveryCampaign
// tests. Each has at least three jobs, so a coordinator crashed on its
// third journal append (TestEveryCampaignStreamsBitIdentical) leaves one
// job journaled and one still to run; adversarial's 130 runs make three
// jobs of up to 64 runs each, and fuzz's 30 schedules thirty of one.
var campaignArgs = map[string][]string{
	"matrix":      {"-t", "1", "-k", "1", "-n", "2", "-posbudget", "20000", "-negbudget", "2000"},
	"fuzz":        {"-target", "consensus", "-n", "3", "-steps", "60", "-schedules", "30"},
	"exhaustive":  {"-reduce=false", "-n", "2", "-depth", "4"},
	"converge":    {"-n", "3", "-k", "1", "-t", "1", "-trials", "3"},
	"relations":   {"-n", "3", "-steps", "100", "-schedules", "4"},
	"adversarial": {"-n", "3", "-runs", "130", "-steps", "2000"},
	"byzantine":   {"-n", "3", "-runs", "2", "-steps", "500"},
	"netconv":     {"-n", "3", "-runs", "2", "-steps", "200"},
}

// TestEveryCampaignStreamsBitIdentical pins the determinism contract of
// every campaign subcommand end to end: the -jsonl stream and the -json
// stdout (wall-clock time and the worker count masked) of a -workers 1 run
// must come out byte for byte the same at -workers 4, under -procs 2 child
// processes, and after a coordinator crashed by -chaos trunc@3 is resumed.
// The crashed run must report an injected interruption that names its
// checkpoint.
func TestEveryCampaignStreamsBitIdentical(t *testing.T) {
	t.Parallel()
	for _, cmd := range commands {
		if cmd.standalone {
			continue
		}
		args, ok := campaignArgs[cmd.name]
		if !ok {
			t.Errorf("no campaignArgs entry for subcommand %q", cmd.name)
			continue
		}
		t.Run(cmd.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			run := func(tag string, extra ...string) (stdout, stream []byte, err error) {
				path := filepath.Join(dir, tag+".jsonl")
				argv := append(append(extra, "-seed", "7", "-json", "-jsonl", path), args...)
				var out bytes.Buffer
				err = execute(context.Background(), cmd.name, argv, &out)
				stream, _ = os.ReadFile(path)
				return maskWorkers.ReplaceAll(maskWallClock(out.Bytes()), []byte(`"workers":0`)), stream, err
			}
			wantOut, wantStream, err := run("plain", "-workers", "1")
			if err != nil || len(wantStream) == 0 || !json.Valid(wantOut) {
				t.Fatalf("-workers 1: %v (stream of %d bytes, stdout %q)", err, len(wantStream), wantOut)
			}
			check := func(tag string, extra ...string) {
				t.Helper()
				out, stream, err := run(tag, extra...)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !bytes.Equal(out, wantOut) {
					t.Errorf("%s: -json stdout differs from -workers 1:\n%s\nvs\n%s", tag, out, wantOut)
				}
				if !bytes.Equal(stream, wantStream) {
					t.Errorf("%s: -jsonl stream differs from -workers 1 (%d vs %d bytes)", tag, len(stream), len(wantStream))
				}
			}
			check("workers4", "-workers", "4")
			check("procs2", "-workers", "4", "-procs", "2")

			ck := filepath.Join(dir, "ck.jsonl")
			_, _, err = run("crashed", "-workers", "4", "-checkpoint", ck, "-chaos", "trunc@3")
			var ie *campaign.InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("chaos run returned %v, want InterruptedError", err)
			}
			if !ie.Injected || ie.Checkpoint != ck {
				t.Fatalf("InterruptedError = %+v", ie)
			}
			check("resumed", "-workers", "4", "-checkpoint", ck, "-resume")
		})
	}
}

var maskWorkers = regexp.MustCompile(`"workers":[0-9]+`)

// TestEveryCampaignUnchangedByFlight: a flight recorder observes executed
// steps and never schedules them, so -flight must leave every campaign's
// summary as it is. Relations runs no simulator and ignores the flag.
func TestEveryCampaignUnchangedByFlight(t *testing.T) {
	t.Parallel()
	for _, cmd := range commands {
		if cmd.standalone {
			continue
		}
		t.Run(cmd.name, func(t *testing.T) {
			t.Parallel()
			summary := func(extra ...string) string {
				var out bytes.Buffer
				args := append(append(extra, "-seed", "7", "-workers", "2", "-json"), campaignArgs[cmd.name]...)
				if err := execute(context.Background(), cmd.name, args, &out); err != nil {
					t.Fatalf("%v: %v", args, err)
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
			if plain, recorded := summary(), summary("-flight", "64"); plain != recorded {
				t.Errorf("-flight 64 changed the summary:\n%s\nvs\n%s", recorded, plain)
			}
		})
	}
}

// TestEveryCampaignExitsDegraded stalls job 0 past its lease with no
// retries, so the coordinator quarantines it: every campaign subcommand,
// in text and -json mode, must complete and exit degraded (3).
func TestEveryCampaignExitsDegraded(t *testing.T) {
	t.Parallel()
	everyCampaignExits(t, exitDegraded, func(string) []string {
		return []string{"-chaos", "stall@0~300ms", "-lease", "50ms", "-retries", "-1"}
	})
}

// TestEveryCampaignExitsInterrupted crashes the coordinator right after it
// writes the journal header: every campaign subcommand must exit
// interrupted (4), never report the crash as a failed campaign.
func TestEveryCampaignExitsInterrupted(t *testing.T) {
	t.Parallel()
	everyCampaignExits(t, exitInterrupted, func(dir string) []string {
		return []string{"-checkpoint", filepath.Join(dir, "ck.jsonl"), "-chaos", "trunc@1"}
	})
}

// everyCampaignExits runs every campaign subcommand of the table, in text
// and -json mode, with the fault flags chaos returns for a fresh directory,
// and requires exit code want. A degraded run completed, so in -json mode
// its stdout must still be the JSON summary.
func everyCampaignExits(t *testing.T, want int, chaos func(dir string) []string) {
	for _, cmd := range commands {
		if cmd.standalone {
			continue
		}
		args, ok := campaignArgs[cmd.name]
		if !ok {
			t.Errorf("no campaignArgs entry for subcommand %q", cmd.name)
			continue
		}
		for _, mode := range []string{"text", "json"} {
			t.Run(cmd.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				args := append(append(chaos(t.TempDir()), "-workers", "2"), args...)
				if mode == "json" {
					args = append(args, "-json")
				}
				var out bytes.Buffer
				err := execute(context.Background(), cmd.name, args, &out)
				if code := exitCode("stm-campaign", err); code != want {
					t.Fatalf("%s %v: exit %d (%v), want %d", cmd.name, args, code, err, want)
				}
				if mode == "json" && want == exitDegraded && !json.Valid(out.Bytes()) {
					t.Errorf("-json stdout is not JSON:\n%s", out.String())
				}
			})
		}
	}
}

// fuzzSummary runs the fuzz subcommand with the given extra flags prepended
// to a fixed base invocation and returns the marshaled -json Summary
// (deterministic: no wall-clock fields).
func fuzzSummary(t *testing.T, extra ...string) string {
	t.Helper()
	base := []string{"-target", "consensus", "-n", "3", "-steps", "60",
		"-schedules", "30", "-seed", "7", "-workers", "4", "-json"}
	var out bytes.Buffer
	err := execute(context.Background(), "fuzz", append(extra, base...), &out)
	if err != nil {
		t.Fatalf("execute(fuzz %v): %v\n%s", extra, err, out.String())
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
	err := execute(context.Background(), "fuzz", []string{"-resume", "-schedules", "4"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Errorf("-resume without -checkpoint: %v", err)
	}
	err = execute(context.Background(), "fuzz", []string{"-chaos", "explode@3", "-schedules", "4"}, &out)
	if err == nil {
		t.Error("bad -chaos plan accepted")
	}
	dir := t.TempDir()
	for _, flag := range []string{"-checkpoint", "-jsonl"} {
		path := filepath.Join(dir, "out")
		err = execute(context.Background(), "exhaustive", []string{flag, path, "-depth", "3"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-reduce=false") {
			t.Errorf("reduced exhaustive with %s: %v", flag, err)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("reduced exhaustive with %s wrote %s", flag, path)
		}
	}
}

// TestResumeRefusesChangedParams: every flag that changes outcomes is part
// of the checkpoint identity, so resuming a journal under a different value
// is refused by the journal-header check instead of mixing two campaigns.
func TestResumeRefusesChangedParams(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		cmd        string
		base       []string
		flag, a, b string
	}{
		{"fuzz", []string{"-target", "consensus", "-n", "3", "-steps", "60", "-schedules", "60"}, "-crashes", "p1@3", "p2@40"},
		{"converge", []string{"-n", "3", "-k", "1", "-t", "1", "-trials", "6"}, "-maxsteps", "200000", "100000"},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			t.Parallel()
			ck := filepath.Join(t.TempDir(), "ck.jsonl")
			common := append([]string{"-workers", "2", "-checkpoint", ck}, tc.base...)
			var out bytes.Buffer
			err := execute(context.Background(), tc.cmd, append(common, tc.flag, tc.a, "-chaos", "trunc@3"), &out)
			var ie *campaign.InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("chaos run returned %v, want InterruptedError", err)
			}
			err = execute(context.Background(), tc.cmd, append(common, tc.flag, tc.b, "-resume"), &out)
			if err == nil || !strings.Contains(err.Error(), "belongs to a different campaign") {
				t.Fatalf("resume under %s %s: %v, want the journal-header refusal", tc.flag, tc.b, err)
			}
			if err := execute(context.Background(), tc.cmd, append(common, tc.flag, tc.a, "-resume"), &out); err != nil {
				t.Fatalf("resume under the original %s: %v", tc.flag, err)
			}
		})
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
	if err := execute(context.Background(), "relations", args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := execute(context.Background(), "relations", append([]string{"-pprof", "127.0.0.1:0"}, args...), &instrumented); err != nil {
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
