package kset

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	good := []Config{
		{N: 4, K: 2, T: 2},
		{N: 4, K: 3, T: 2},               // trivial path
		{N: 4, K: 4, T: 3},               // k = n
		{N: 5, K: 3, T: 3, DetectorK: 2}, // reduction
		{N: 14, K: 7, T: 7},              // largest detector Πkn at k = n/2
		{N: 64, K: 32, T: 31},            // trivial path: no detector
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
	bad := []Config{
		{N: 1, K: 1, T: 1},
		{N: 4, K: 0, T: 2},
		{N: 4, K: 5, T: 2},
		{N: 4, K: 2, T: 0},
		{N: 4, K: 2, T: 4},
		{N: 4, K: 3, T: 2, DetectorK: 1},  // trivial path forbids override
		{N: 5, K: 2, T: 3, DetectorK: 3},  // DetectorK > k
		{N: 5, K: 3, T: 3, DetectorK: -1}, // negative
		{N: 64, K: 32, T: 32},             // detector Πkn over antiomega's cap
		{N: 64, K: 40, T: 50, DetectorK: 30},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// runAgreement executes a full (t,k,n)-agreement run on the given source and
// returns the protocol object after all correct processes decided (or the
// budget ran out).
func runAgreement(t *testing.T, cfg Config, src sched.Source, maxSteps int) (*Agreement, bool) {
	t.Helper()
	ag, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	proposal := func(p procset.ID) any { return fmt.Sprintf("v%d", p) }
	runner, err := sim.NewRunner(sim.Config{N: cfg.N, Algorithm: ag.Algorithm(proposal)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runner.Close)
	correct := src.Correct()
	res := runner.Run(src, maxSteps, 200, func() bool {
		return correct.SubsetOf(ag.DecidedSet())
	})
	return ag, res.Stopped
}

func verifyRun(t *testing.T, ag *Agreement, correct procset.Set) {
	t.Helper()
	cfg := ag.Config()
	run := check.AgreementRun{
		N:         cfg.N,
		K:         cfg.K,
		T:         cfg.T,
		Proposals: make(map[procset.ID]any),
		Decisions: make(map[procset.ID]any),
		Correct:   correct,
	}
	for p := 1; p <= cfg.N; p++ {
		id := procset.ID(p)
		run.Proposals[id] = fmt.Sprintf("v%d", p)
		if v, ok := ag.Decision(id); ok {
			run.Decisions[id] = v
		}
	}
	if err := run.Verify(); err != nil {
		t.Error(err)
	}
}

func TestTheorem24AgreementInMatchingSystem(t *testing.T) {
	t.Parallel()
	// (t,k,n)-agreement solves in S^k_{t+1,n} (Theorem 24), for k ≤ t.
	tests := []struct {
		name    string
		cfg     Config
		crashes map[procset.ID]int
		seed    int64
	}{
		{"n3k1t1 consensus", Config{N: 3, K: 1, T: 1}, map[procset.ID]int{3: 30}, 1},
		{"n4k2t2 failure-free", Config{N: 4, K: 2, T: 2}, nil, 2},
		{"n4k2t2 two crashes", Config{N: 4, K: 2, T: 2}, map[procset.ID]int{3: 0, 4: 150}, 3},
		{"n5k2t3 three crashes", Config{N: 5, K: 2, T: 3}, map[procset.ID]int{1: 40, 4: 0, 5: 90}, 4},
		{"n5k3t4 wait-free-ish", Config{N: 5, K: 3, T: 4}, map[procset.ID]int{2: 0, 3: 10, 4: 20, 5: 60}, 5},
		{"n6k2t2", Config{N: 6, K: 2, T: 2}, map[procset.ID]int{6: 0}, 6},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, _, err := sched.System(tc.cfg.N, tc.cfg.K, tc.cfg.T+1, 4, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			ag, done := runAgreement(t, tc.cfg, src, 2_000_000)
			if !done {
				t.Fatalf("correct processes %v did not all decide (decided %v)",
					src.Correct(), ag.DecidedSet())
			}
			verifyRun(t, ag, src.Correct())
		})
	}
}

func TestCorollary25TrivialPath(t *testing.T) {
	t.Parallel()
	// k ≥ t+1: solvable in the asynchronous system; runs on plain random
	// schedules with up to t crashes.
	tests := []struct {
		name    string
		cfg     Config
		crashes map[procset.ID]int
	}{
		{"n4k3t2", Config{N: 4, K: 3, T: 2}, map[procset.ID]int{1: 5, 2: 9}},
		{"n4k4t3", Config{N: 4, K: 4, T: 3}, map[procset.ID]int{1: 0, 2: 0, 3: 4}},
		{"n6k4t3", Config{N: 6, K: 4, T: 3}, map[procset.ID]int{2: 7}},
		{"n2k2t1", Config{N: 2, K: 2, T: 1}, map[procset.ID]int{1: 0}},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if !tc.cfg.UsesTrivialAlgorithm() {
				t.Fatal("test case should use the trivial path")
			}
			src, err := sched.Random(tc.cfg.N, 7, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			ag, done := runAgreement(t, tc.cfg, src, 200_000)
			if !done {
				t.Fatalf("correct processes did not all decide (decided %v)", ag.DecidedSet())
			}
			verifyRun(t, ag, src.Correct())
		})
	}
}

func TestTheorem27ReductionDetectorK(t *testing.T) {
	t.Parallel()
	// (t,k,n) = (3,3,5) in S^1_{3,5}: j = 3 < t+1 = 4, so the reduction runs
	// the detector with l = i + (t+1−j) = 2 < k. The run must decide with at
	// most l distinct values (strictly stronger than required).
	cfg := Config{N: 5, K: 3, T: 3, DetectorK: 2}
	src, _, err := sched.System(5, 1, 3, 4, 21, map[procset.ID]int{4: 25, 5: 0})
	if err != nil {
		t.Fatal(err)
	}
	ag, done := runAgreement(t, cfg, src, 2_000_000)
	if !done {
		t.Fatalf("correct processes did not all decide (decided %v)", ag.DecidedSet())
	}
	verifyRun(t, ag, src.Correct())
	if got := ag.DistinctDecisions(); got > 2 {
		t.Errorf("reduction promised ≤ 2 distinct decisions, got %d", got)
	}
}

func TestSafetyUnderAdversary(t *testing.T) {
	t.Parallel()
	// The rotating starver keeps every k-set non-timely: termination is not
	// guaranteed (the FD may never stabilize), but safety must hold.
	cfg := Config{N: 4, K: 2, T: 2}
	src, err := sched.RotatingStarver(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ag, _ := runAgreement(t, cfg, src, 300_000)
	run := check.AgreementRun{
		N: 4, K: 2, T: 2,
		Proposals: map[procset.ID]any{1: "v1", 2: "v2", 3: "v3", 4: "v4"},
		Decisions: map[procset.ID]any{},
		Correct:   src.Correct(),
	}
	for p := procset.ID(1); p <= 4; p++ {
		if v, ok := ag.Decision(p); ok {
			run.Decisions[p] = v
		}
	}
	for _, err := range run.SafetyViolations() {
		t.Error(err)
	}
}

func TestSafetyBeyondCrashBudget(t *testing.T) {
	t.Parallel()
	// t+1 crashes: termination is not required, safety still is.
	cfg := Config{N: 4, K: 1, T: 1}
	src, err := sched.Random(4, 3, map[procset.ID]int{1: 30, 2: 80})
	if err != nil {
		t.Fatal(err)
	}
	ag, _ := runAgreement(t, cfg, src, 200_000)
	if got := ag.DistinctDecisions(); got > 1 {
		t.Errorf("consensus decided %d distinct values", got)
	}
}

func TestUniformityCountsFaultyDeciders(t *testing.T) {
	t.Parallel()
	// A process that decides and then crashes still counts toward the k
	// distinct decisions. With the trivial algorithm, leaders decide
	// immediately; crash leader 1 right after its write+decide and verify
	// the global count stays within k.
	cfg := Config{N: 4, K: 3, T: 2}
	src, err := sched.Random(4, 11, map[procset.ID]int{1: 2})
	if err != nil {
		t.Fatal(err)
	}
	ag, done := runAgreement(t, cfg, src, 100_000)
	if !done {
		t.Fatal("correct processes did not decide")
	}
	if _, ok := ag.Decision(1); !ok {
		t.Skip("leader crashed before deciding; nothing to verify")
	}
	if got := ag.DistinctDecisions(); got > 3 {
		t.Errorf("%d distinct decisions with faulty decider, want ≤ 3", got)
	}
}

func TestDecisionSetAndAccessors(t *testing.T) {
	t.Parallel()
	cfg := Config{N: 3, K: 3, T: 1}
	src, err := sched.RoundRobin(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ag, done := runAgreement(t, cfg, src, 50_000)
	if !done {
		t.Fatal("did not decide")
	}
	if ag.DecidedSet() != procset.FullSet(3) {
		t.Errorf("DecidedSet = %v", ag.DecidedSet())
	}
	if _, ok := ag.Decision(2); !ok {
		t.Error("p2 has no decision")
	}
	if ag.Config().N != 3 {
		t.Error("Config accessor broken")
	}
}

func TestOnDecideCallback(t *testing.T) {
	t.Parallel()
	cfg := Config{N: 3, K: 3, T: 2}
	var order []procset.ID
	ag, err := New(cfg, func(p procset.ID, v any) { order = append(order, p) })
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{
		N:         3,
		Algorithm: ag.Algorithm(func(p procset.ID) any { return int(p) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	src, err := sched.RoundRobin(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(src, 10_000, 10, func() bool { return len(order) == 3 })
	if len(order) != 3 {
		t.Fatalf("onDecide fired %d times, want 3", len(order))
	}
}

func TestNilProposalPanics(t *testing.T) {
	t.Parallel()
	ag, err := New(Config{N: 2, K: 2, T: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("nil proposal accepted")
		}
	}()
	ag.Algorithm(func(procset.ID) any { return nil })(1)
}
