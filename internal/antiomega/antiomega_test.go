package antiomega

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/fd"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	// C(14,7) = 3,432 sets is the largest Πkn at k = n/2 under the cap.
	for _, valid := range []Config{{N: 4, K: 2, T: 2}, {N: 14, K: 7, T: 7}, {N: 64, K: 1, T: 1}, {N: 64, K: 63, T: 63}} {
		if err := valid.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", valid, err)
		}
	}
	bad := []Config{
		{N: 1, K: 1, T: 1},
		{N: 65, K: 2, T: 2},
		{N: 4, K: 0, T: 2},
		{N: 4, K: 4, T: 2},
		{N: 4, K: 2, T: 0},
		{N: 4, K: 2, T: 4},
		{N: 15, K: 7, T: 7},   // C(15,7) = 6,435 sets: over the cap
		{N: 64, K: 32, T: 32}, // C(64,32) overflows a naive binomial
		{N: 64, K: 3, T: 3},   // C(64,3) = 41,664
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// runDetector drives the Figure 2 algorithm over the given source until the
// correct processes publish a common stable winnerset for `stableChecks`
// consecutive probes (probed every probeEvery steps), or maxSteps elapse.
// It returns the detector, the recorded history, and whether stability was
// reached.
func runDetector(t *testing.T, cfg Config, src sched.Source, maxSteps int) (*Detector, *fd.History, bool) {
	t.Helper()
	hist := fd.NewHistory(cfg.N)
	det, err := NewDetector(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var runner *sim.Runner
	det2, err := NewDetector(cfg, func(p procset.ID, out procset.Set) {
		hist.Record(runner.Steps(), p, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = det
	runner, err = sim.NewRunner(sim.Config{N: cfg.N, Algorithm: det2.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runner.Close)

	correct := src.Correct()
	stableStreak := 0
	var lastStable procset.Set
	res := runner.Run(src, maxSteps, 500, func() bool {
		w, ok := det2.StableWinnerset(correct)
		if !ok {
			stableStreak = 0
			return false
		}
		if w == lastStable {
			stableStreak++
		} else {
			lastStable, stableStreak = w, 1
		}
		// Demand sustained stability: same common winnerset across many
		// consecutive probes, with every correct process having iterated.
		for _, p := range correct.Members() {
			if det2.Iterations(p) < 5 {
				return false
			}
		}
		return stableStreak >= 20
	})
	return det2, hist, res.Stopped
}

func TestTheorem23Positive(t *testing.T) {
	t.Parallel()
	// (n,k,t) sweep: the detector implements t-resilient k-anti-Ω in
	// S^k_{t+1,n}. Schedules come from the conformant generator with up to t
	// crashes.
	tests := []struct {
		name    string
		cfg     Config
		crashes map[procset.ID]int
		seed    int64
	}{
		{"n4k2t2 failure-free", Config{N: 4, K: 2, T: 2}, nil, 1},
		{"n4k2t2 one crash", Config{N: 4, K: 2, T: 2}, map[procset.ID]int{4: 60}, 2},
		{"n4k2t2 two crashes", Config{N: 4, K: 2, T: 2}, map[procset.ID]int{3: 0, 4: 200}, 3},
		{"n5k2t3", Config{N: 5, K: 2, T: 3}, map[procset.ID]int{5: 100}, 4},
		{"n5k1t1 omega", Config{N: 5, K: 1, T: 1}, map[procset.ID]int{2: 50}, 5},
		{"n4k3t3 anti-omega", Config{N: 4, K: 3, T: 3}, map[procset.ID]int{1: 0, 2: 0, 4: 30}, 6},
		{"n6k3t3", Config{N: 6, K: 3, T: 3}, map[procset.ID]int{6: 0}, 7},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, pair, err := sched.System(tc.cfg.N, tc.cfg.K, tc.cfg.T+1, 4, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			det, hist, stable := runDetector(t, tc.cfg, src, 600_000)
			if !stable {
				t.Fatalf("no stable common winnerset within budget (timely pair %+v)", pair)
			}
			correct := src.Correct()
			w, ok := det.StableWinnerset(correct)
			if !ok {
				t.Fatal("stability lost at end of run")
			}
			if w.Intersect(correct).IsEmpty() {
				t.Errorf("winnerset %v contains no correct process (correct %v)", w, correct)
			}
			verdict := hist.Check(tc.cfg.K, correct)
			if !verdict.Holds {
				t.Errorf("k-anti-Ω property violated: %s", verdict.Reason)
			}
		})
	}
}

func TestLemma22CommonWinnerset(t *testing.T) {
	t.Parallel()
	// All correct processes converge to the same winnerset A0 (Lemma 22),
	// and A0 contains a correct process (Lemma 20).
	cfg := Config{N: 4, K: 2, T: 2}
	src, _, err := sched.System(4, 2, 3, 3, 42, map[procset.ID]int{4: 40})
	if err != nil {
		t.Fatal(err)
	}
	det, _, stable := runDetector(t, cfg, src, 600_000)
	if !stable {
		t.Fatal("no convergence")
	}
	correct := src.Correct()
	w1 := det.Winnerset(correct.Nth(0))
	for _, p := range correct.Members() {
		if det.Winnerset(p) != w1 {
			t.Errorf("winnersets differ: %v at %v vs %v", det.Winnerset(p), p, w1)
		}
		if det.Output(p) != w1.Complement(4) {
			t.Errorf("output of %v = %v, want complement of %v", p, det.Output(p), w1)
		}
	}
}

func TestOmegaSpecialCase(t *testing.T) {
	t.Parallel()
	// k = 1: the winnerset is a single process, i.e. an Ω leader; all
	// correct processes eventually trust the same correct leader.
	cfg := Config{N: 3, K: 1, T: 1}
	src, _, err := sched.System(3, 1, 2, 3, 9, map[procset.ID]int{3: 20})
	if err != nil {
		t.Fatal(err)
	}
	det, _, stable := runDetector(t, cfg, src, 400_000)
	if !stable {
		t.Fatal("no convergence")
	}
	correct := src.Correct()
	w, ok := det.StableWinnerset(correct)
	if !ok {
		t.Fatal("no common winnerset")
	}
	leader := fd.Leader(w)
	if leader == 0 {
		t.Fatalf("winnerset %v is not a singleton", w)
	}
	if !correct.Contains(leader) {
		t.Errorf("leader %v is crashed", leader)
	}
}

func TestLemma12CrashedSetKeepsGettingAccused(t *testing.T) {
	t.Parallel()
	// If every process of a set A crashes, every correct process keeps
	// incrementing Counter[A, *]; A's accusation counter grows and A cannot
	// remain the winnerset. With n=4, k=2, t=2 and processes 3,4 crashed,
	// the stable winnerset must avoid {3,4}.
	cfg := Config{N: 4, K: 2, T: 2}
	src, _, err := sched.System(4, 2, 3, 3, 77, map[procset.ID]int{3: 0, 4: 0})
	if err != nil {
		t.Fatal(err)
	}
	det, _, stable := runDetector(t, cfg, src, 600_000)
	if !stable {
		t.Fatal("no convergence")
	}
	w, _ := det.StableWinnerset(src.Correct())
	if w == procset.MakeSet(3, 4) {
		t.Errorf("winnerset is the fully crashed set %v", w)
	}
	if w.Intersect(procset.MakeSet(1, 2)).IsEmpty() {
		t.Errorf("winnerset %v contains no correct process", w)
	}
}

func TestInstanceIterationStepCount(t *testing.T) {
	t.Parallel()
	// One iteration costs C(n,k)·n + 1 + n + (#expired) steps. On the very
	// first iteration every timer starts at 1 and expires (heartbeat resets
	// happen in the same iteration but line 14 decrements afterwards), so
	// the count is C·n + 1 + n + C.
	cfg := Config{N: 4, K: 2, T: 2}
	steps := 0
	runner, err := sim.NewRunner(sim.Config{
		N: cfg.N,
		Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				in, err := NewInstance(cfg, env)
				if err != nil {
					panic(err)
				}
				for {
					in.Iterate()
				}
			}
		},
		Observer: func(s sim.StepInfo) {
			if s.Proc == 1 {
				steps++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	c := procset.Binomial(4, 2)
	perIter := c*4 + 1 + 4
	// Drive only process 1 for exactly one iteration's worth of steps plus
	// the first step of the next iteration.
	for i := 0; i < perIter+c; i++ {
		runner.Step(1)
	}
	if steps != perIter+c {
		t.Fatalf("observer missed steps: %d", steps)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	t.Parallel()
	runner, err := sim.NewRunner(sim.Config{
		N: 3,
		Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				if _, err := NewInstance(Config{N: 4, K: 2, T: 2}, env); err == nil {
					panic("mismatched n accepted")
				}
				if _, err := NewInstance(Config{N: 3, K: 0, T: 1}, env); err == nil {
					panic("bad k accepted")
				}
				env.Write(env.Reg("done"), true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	info := runner.Step(1)
	if info.Reg != "done" {
		t.Fatalf("validation inside instance failed: %+v", info)
	}
}

func TestDetectorOutputSizes(t *testing.T) {
	t.Parallel()
	cfg := Config{N: 5, K: 2, T: 2}
	det, err := NewDetector(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{N: 5, Algorithm: det.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	src, err := sched.RoundRobin(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(src, 20_000, 0, nil)
	for p := procset.ID(1); p <= 5; p++ {
		if got := det.Output(p).Size(); got != 3 {
			t.Errorf("output of %v has size %d, want n-k = 3", p, got)
		}
		if got := det.Winnerset(p).Size(); got != 2 {
			t.Errorf("winnerset of %v has size %d, want k = 2", p, got)
		}
		if det.Iterations(p) == 0 {
			t.Errorf("process %v never iterated", p)
		}
	}
}
