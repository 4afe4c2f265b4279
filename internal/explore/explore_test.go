package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/faultinject"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// caBuilder is the exported commit-adopt target; the alias keeps the
// historical test name.
func caBuilder(n int) Builder { return CommitAdoptBuilder(n) }

// exhaustiveFresh runs the full n^depth enumeration on the builder path
// (a fresh coroutine run per schedule), for the mutants that have no
// pooled form.
func exhaustiveFresh(workers, n, depth int, build Builder, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	total, schedules, err := exhaustiveSpace(n, depth)
	if err != nil {
		return nil, 0, err
	}
	exec := func(_ *Run, s sched.Schedule) error { return runOne(n, s, build) }
	return scheduleCampaign(context.Background(), workers, total, schedules, freshRuns, exec, onResult)
}

func TestCommitAdoptExhaustiveN2(t *testing.T) {
	t.Parallel()
	// Propose costs 2 + 2n = 6 steps per process with n=2; depth 12 covers
	// every interleaving of two complete proposals: 4096 runs.
	_, runs, err := exhaustiveFresh(0, 2, 12, caBuilder(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 4096 {
		t.Errorf("runs = %d, want 4096", runs)
	}
}

func TestCommitAdoptFuzzN4(t *testing.T) {
	t.Parallel()
	crashes := []map[procset.ID]int{
		nil,
		{1: 3},
		{2: 0, 4: 9},
	}
	_, runs, err := FuzzCampaign(context.Background(), 0, 4, 300, 60, 0, crashes, caBuilder(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 180 {
		t.Errorf("runs = %d, want 180", runs)
	}
}

// brokenAgreement is a deliberately wrong protocol: each process writes its
// value and decides the minimum it has read so far — transient views differ,
// so two processes can "commit" different values. The explorer must catch
// it (mutation test for the harness itself).
func brokenAgreementBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		decided := make([]any, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				regs := make([]sim.Ref, n+1)
				for q := 1; q <= n; q++ {
					regs[q] = env.Reg(fmt.Sprintf("V[%d]", q))
				}
				env.Write(regs[p], int(p))
				min := int(p)
				for q := 1; q <= n; q++ {
					if v, ok := env.Read(regs[q]).(int); ok && v < min {
						min = v
					}
				}
				decided[p] = min
			}
		}
		check := func() error {
			var first any
			for p := 1; p <= n; p++ {
				if decided[p] == nil {
					continue
				}
				if first == nil {
					first = decided[p]
				} else if decided[p] != first {
					return fmt.Errorf("disagreement: %v vs %v", first, decided[p])
				}
			}
			return nil
		}
		return algo, check
	}
}

func TestExplorerCatchesBrokenAgreement(t *testing.T) {
	t.Parallel()
	_, _, err := exhaustiveFresh(0, 2, 12, brokenAgreementBuilder(2), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken protocol not caught: %v", err)
	}
	if len(v.Schedule) != 12 {
		t.Errorf("violation schedule = %v", v.Schedule)
	}
}

// brokenCommitAdopt skips the second collect phase: commits are based on
// phase 1 unanimity alone, which is unsound. The fuzzer must catch it.
func brokenCommitAdoptBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		type result struct {
			commit bool
			val    any
		}
		results := make([]*result, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				a := make([]sim.Ref, n+1)
				for q := 1; q <= n; q++ {
					a[q] = env.Reg(fmt.Sprintf("A[%d]", q))
				}
				env.Write(a[p], int(p))
				unanimous := true
				adopt := int(p)
				for q := 1; q <= n; q++ {
					if v, ok := env.Read(a[q]).(int); ok && v != int(p) {
						unanimous = false
						if v < adopt {
							adopt = v
						}
					}
				}
				results[p] = &result{commit: unanimous, val: adopt}
			}
		}
		check := func() error {
			var committed any
			for p := 1; p <= n; p++ {
				if r := results[p]; r != nil && r.commit {
					if committed != nil && committed != r.val {
						return fmt.Errorf("commit disagreement")
					}
					committed = r.val
				}
			}
			if committed == nil {
				return nil
			}
			for p := 1; p <= n; p++ {
				if r := results[p]; r != nil && r.val != committed {
					return fmt.Errorf("adoption mismatch")
				}
			}
			return nil
		}
		return algo, check
	}
}

func TestExplorerCatchesBrokenCommitAdopt(t *testing.T) {
	t.Parallel()
	_, _, err := exhaustiveFresh(0, 2, 8, brokenCommitAdoptBuilder(2), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken commit-adopt not caught: %v", err)
	}
}

// TestConsensusSafetyExhaustiveTiny explores every schedule of two
// contending Disk-Paxos proposers for 16 steps: no interleaving may yield
// two different decisions or a non-proposal decision.
func TestConsensusSafetyExhaustiveTiny(t *testing.T) {
	t.Parallel()
	_, runs, err := exhaustiveFresh(0, 2, 16, ConsensusBuilder(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 65536 {
		t.Errorf("runs = %d", runs)
	}
}

func TestExhaustiveValidation(t *testing.T) {
	t.Parallel()
	b := caBuilder(2)
	if _, _, err := exhaustiveFresh(0, 5, 3, b, nil); err == nil {
		t.Error("n = 5 accepted")
	}
	if _, _, err := exhaustiveFresh(0, 2, 0, b, nil); err == nil {
		t.Error("depth = 0 accepted")
	}
	if _, _, err := exhaustiveFresh(0, 2, 25, b, nil); err == nil {
		t.Error("depth = 25 accepted")
	}
}

// A fuzz campaign with fewer than one step per schedule is rejected before
// any job runs, on both execution paths.
func TestFuzzValidation(t *testing.T) {
	t.Parallel()
	for _, steps := range []int{0, -4} {
		if _, _, err := FuzzCampaign(context.Background(), 0, 3, steps, 3, 0, nil, caBuilder(3), nil); err == nil {
			t.Errorf("FuzzCampaign: steps = %d accepted", steps)
		}
		if _, _, err := FuzzPooledCampaign(context.Background(), 0, 3, steps, 3, 0, nil, CommitAdoptPooledBuilder(3), nil); err == nil {
			t.Errorf("FuzzPooledCampaign: steps = %d accepted", steps)
		}
	}
}

func TestViolationMarshalJSON(t *testing.T) {
	t.Parallel()
	v := &Violation{Schedule: sched.Schedule{1, 2, 1}, Err: fmt.Errorf("disagreement: 10 vs 20")}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Schedule string `json:"schedule"`
		Err      string `json:"err"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Err != "disagreement: 10 vs 20" || got.Schedule == "" {
		t.Errorf("marshaled violation = %s", data)
	}
}

// TestPanickedJobIsNoViolation: a job that panics on a chosen run reports
// as a failed job, never as a violation, in process and after its outcome
// crossed a checkpoint journal (a crash right after its append, then
// -resume), where its PanicDetail comes back as raw JSON.
func TestPanickedJobIsNoViolation(t *testing.T) {
	t.Parallel()
	const total, chosen = 24, 9 // one run per job at this size
	schedules := func() func(int) sched.Schedule {
		return func(r int) sched.Schedule {
			if r == chosen {
				return sched.Schedule{1}
			}
			return sched.Schedule{1, 2}
		}
	}
	exec := func(_ *Run, s sched.Schedule) error {
		if len(s) == 1 {
			panic("boom on the chosen run")
		}
		return nil
	}
	check := func(label string, ctx context.Context) *campaign.Report {
		t.Helper()
		rep, _, err := scheduleCampaign(ctx, 1, total, schedules, freshRuns, exec, nil)
		if err != nil {
			t.Fatalf("%s: got %v, want a failed job and no violation", label, err)
		}
		if len(rep.Failures) != 1 || rep.Failures[0].Job != chosen || rep.Failures[0].Verdict != "panic" {
			t.Fatalf("%s: failures = %+v, want job %d with verdict panic", label, rep.Failures, chosen)
		}
		return rep
	}
	check("in-process", context.Background())

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	plan, err := faultinject.Parse(fmt.Sprintf("crash@%d", chosen+1))
	if err != nil {
		t.Fatal(err)
	}
	res := &campaign.Resilience{Checkpoint: path, Spec: campaign.Spec{Kind: "panic"}, Chaos: faultinject.New(plan, 1)}
	_, _, err = scheduleCampaign(campaign.WithOptions(context.Background(), campaign.Options{Resilience: res}), 1, total, schedules, freshRuns, exec, nil)
	var ie *campaign.InterruptedError
	if !errors.As(err, &ie) || !ie.Injected {
		t.Fatalf("chaos run: got %v, want an injected crash", err)
	}
	// crash@N leaves a clean tail, so the crashing record is checkpointed.
	if ie.Done != chosen+1 {
		t.Errorf("chaos run reports %d jobs checkpointed, want the %d a resume recovers", ie.Done, chosen+1)
	}
	rep := check("resumed", campaign.WithOptions(context.Background(), campaign.Options{Resilience: &campaign.Resilience{Checkpoint: path, Spec: campaign.Spec{Kind: "panic"}, Resume: true}}))
	// The journal already holds the failure, so StopOnFail runs nothing more.
	if rep.Summary.Completed != chosen+1 || rep.Summary.Skipped != total-chosen-1 {
		t.Errorf("resumed summary %+v, want the %d journaled jobs and the rest skipped", rep.Summary, chosen+1)
	}

	if err := json.Unmarshal([]byte(`{"message":"boom"}`), new(Violation)); err == nil {
		t.Error("a PanicDetail object decoded as a Violation")
	}
}

// TestViolationReachesJSONLStream drives a violating campaign through the
// JSONL sink end to end: the failing batch's record must carry the
// violation's schedule and error text, not an empty object.
func TestViolationReachesJSONLStream(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	sink, sinkErr := campaign.JSONLSink(&buf)
	_, _, err := exhaustiveFresh(2, 2, 12, brokenAgreementBuilder(2), sink)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken protocol not caught: %v", err)
	}
	if *sinkErr != nil {
		t.Fatal(*sinkErr)
	}
	if !strings.Contains(buf.String(), `"err":"disagreement`) {
		t.Errorf("violation error text missing from JSONL stream:\n%s", buf.String())
	}
}

// TestViolationKeepsItsSchedule: a job's nth refills one buffer per run, so
// the violation of run k must own a copy of run k's schedule. Within one
// job whose later runs pass, and through both campaign entry points, the
// violation's schedule must equal Take(Random(...)) for run k.
func TestViolationKeepsItsSchedule(t *testing.T) {
	t.Parallel()
	const n, steps, seeds, k = 3, 40, 50, 29
	const base = int64(5)
	patterns := []map[procset.ID]int{nil, {2: 4}}
	src, err := sched.Random(n, base+k/int64(len(patterns)), patterns[k%len(patterns)])
	if err != nil {
		t.Fatal(err)
	}
	want := sched.Take(src, steps)
	injected := errors.New("injected failure")
	// failing wraps check so that its k-th call (from 0) fails.
	failing := func(check func() error) func() error {
		var calls atomic.Int32
		return func() error {
			if calls.Add(1)-1 == k {
				return injected
			}
			return check()
		}
	}
	pooled := func() (*Run, error) {
		run, err := CommitAdoptPooledBuilder(n)()
		if err == nil {
			run.Check = failing(run.Check)
		}
		return run, err
	}
	var builds atomic.Int32
	fresh := func() (func(procset.ID) sim.Algorithm, func() error) {
		algo, check := caBuilder(n)()
		if builds.Add(1)-1 == k {
			return algo, func() error { return injected }
		}
		return algo, check
	}
	holds := func(t *testing.T, err error) {
		t.Helper()
		var v *Violation
		if !errors.As(err, &v) || !errors.Is(v.Err, injected) {
			t.Fatalf("want the injected violation, got %v", err)
		}
		if !slices.Equal(v.Schedule, want) {
			t.Errorf("violation schedule\n  %v\nwant run %d's\n  %v", v.Schedule, k, want)
		}
	}

	t.Run("job", func(t *testing.T) {
		run, err := pooled()
		if err != nil {
			t.Fatal(err)
		}
		defer run.Runner.Close()
		execs := map[string]func(sched.Schedule) error{
			"pooled": func(s sched.Schedule) error { return runPooled(run, s) },
			"fresh":  func(s sched.Schedule) error { return runOne(n, s, fresh) },
		}
		for name, exec := range execs {
			total, schedules, err := fuzzSpace(n, steps, seeds, base, patterns)
			if err != nil {
				t.Fatal(err)
			}
			nth := schedules()
			var kept error
			for r := 0; r < total; r++ {
				if err := exec(nth(r)); r == k {
					kept = err
				} else if err != nil {
					t.Fatalf("%s run %d: %v", name, r, err)
				}
			}
			t.Run(name, func(t *testing.T) { holds(t, kept) })
		}
	})
	t.Run("FuzzPooledCampaign", func(t *testing.T) {
		_, _, err := FuzzPooledCampaign(context.Background(), 1, n, steps, seeds, base, patterns, pooled, nil)
		holds(t, err)
	})
	t.Run("FuzzPooledCampaign/flight", func(t *testing.T) {
		ctx := campaign.WithOptions(context.Background(), campaign.Options{Flight: 16})
		_, _, err := FuzzPooledCampaign(ctx, 1, n, steps, seeds, base, patterns, pooled, nil)
		holds(t, err)
		var v *Violation
		if errors.As(err, &v) && !strings.HasPrefix(v.Flight, "flight recorder: last 16 step(s)\n") {
			t.Errorf("violation lacks the run's flight tail:\n%s", v.Flight)
		}
	})
	t.Run("FuzzCampaign", func(t *testing.T) {
		builds.Store(0)
		_, _, err := FuzzCampaign(context.Background(), 1, n, steps, seeds, base, patterns, fresh, nil)
		holds(t, err)
	})
}
