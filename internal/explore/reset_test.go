package explore

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// resetAllocCeiling is the recorded allocation ceiling of one pooled run of
// each fuzz target — harness hook, Runner.Reset, and the replay of the
// seed-7 fuzz schedule — on a warm runner. What remains are the machines'
// mutable fields and the protocols' own written values. A machine factory
// that goes back to formatting or interning register names on every Reset
// adds an allocation per name and fails here.
var resetAllocCeiling = map[string]float64{
	TargetCommitAdopt: 18,
	TargetConsensus:   22,
	TargetCAChain:     18,
	TargetKSet:        30,
	TargetBG:          32,
}

// TestPooledResetReusesLayouts pins the pooled reset's fixed cost: once a
// run has warmed the runner up, Reset plus the replay of a known schedule
// interns no register and stays under the target's allocation ceiling.
func TestPooledResetReusesLayouts(t *testing.T) {
	s := fuzzSchedule(t, 7)
	for _, target := range pooledTargets {
		t.Run(target, func(t *testing.T) {
			build, err := PooledTargetBuilder(target, 4)
			if err != nil {
				t.Fatal(err)
			}
			run, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer run.Runner.Close()
			replay := func() {
				if err := runPooled(run, s); err != nil {
					t.Fatal(err)
				}
			}
			// Two warm-up runs: the first interns the layouts, the second
			// brings the recyclers to their steady state.
			replay()
			replay()
			regs := run.Runner.Registers()
			allocs := testing.AllocsPerRun(50, replay)
			if got := run.Runner.Registers(); got != regs {
				t.Errorf("reset+replay interned %d registers (%d → %d)", got-regs, regs, got)
			}
			if ceiling := resetAllocCeiling[target]; allocs > ceiling {
				t.Errorf("reset+replay allocates %.1f times per run, ceiling %.0f", allocs, ceiling)
			}
			t.Logf("%s: %.1f allocs per reset+replay, %d registers", target, allocs, regs)
		})
	}
}

// observedRig is a target's production wiring (see targetRig) on an
// observed runner, recording every step into *log. "kset-chain" is the kset
// target on the commit-adopt chain engine, whose consensus rounds intern
// registers as they are reached.
func observedRig(t *testing.T, target string, n int, log *[]string) (*sim.Runner, targetRig) {
	t.Helper()
	var rig targetRig
	var err error
	switch target {
	case TargetCommitAdopt:
		rig = commitAdoptRig(n)
	case TargetConsensus:
		rig = consensusRig(n)
	case TargetCAChain:
		rig = caChainRig(n)
	case TargetKSet:
		rig, err = ksetRig(ksetConfig(n))
	case "kset-chain":
		cfg := ksetConfig(n)
		cfg.Engine = kset.EngineCommitAdopt
		rig, err = ksetRig(cfg)
	case TargetBG:
		rig, err = bgRig(n)
	default:
		t.Fatalf("no rig for %q", target)
	}
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{
		N:       n,
		Machine: rig.machine,
		Observer: func(si sim.StepInfo) {
			*log = append(*log, fmt.Sprintf("%d %v %v %s %v", si.Index, si.Proc, si.Kind, si.Reg, si.Value))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runner.Close)
	return runner, rig
}

// TestResetMatchesFreshObserved is the differential contract of the layout
// cache: a reset runner replays a schedule with the StepInfo stream and
// verdict of a fresh runner. The first run is short and the second long, so
// the second reaches chain rounds (and their lazily memoised layouts) that
// the first never did; the register count growing across the reset proves
// it.
func TestResetMatchesFreshObserved(t *testing.T) {
	const n = 4
	warm := fuzzSchedule(t, 3)[:40]
	src, err := sched.Random(n, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	long := sched.Take(src, 4000)
	for _, target := range append(pooledTargets, "kset-chain") {
		t.Run(target, func(t *testing.T) {
			var reusedLog, freshLog []string
			reused, reusedRig := observedRig(t, target, n, &reusedLog)
			reused.RunSchedule(warm)
			warmRegs := reused.Registers()
			reusedRig.reset()
			if err := reused.Reset(); err != nil {
				t.Fatal(err)
			}
			reusedLog = reusedLog[:0]
			reused.RunSchedule(long)

			fresh, freshRig := observedRig(t, target, n, &freshLog)
			fresh.RunSchedule(long)

			if len(reusedLog) != len(freshLog) {
				t.Fatalf("stream lengths differ: reset %d, fresh %d", len(reusedLog), len(freshLog))
			}
			for i := range freshLog {
				if reusedLog[i] != freshLog[i] {
					t.Fatalf("step %d diverges:\nreset: %s\nfresh: %s", i, reusedLog[i], freshLog[i])
				}
			}
			if a, b := fmt.Sprint(reusedRig.check()), fmt.Sprint(freshRig.check()); a != b {
				t.Fatalf("verdicts differ: reset %s, fresh %s", a, b)
			}
			if got, want := reused.Registers(), fresh.Registers(); got != want {
				t.Fatalf("reset runner holds %d registers, fresh %d", got, want)
			}
			switch target {
			case TargetCAChain, "kset-chain":
				if reused.Registers() <= warmRegs {
					t.Fatalf("long run interned no round beyond the warm-up's (%d registers)", warmRegs)
				}
			}
		})
	}
}
