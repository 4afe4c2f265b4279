package explore

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// resetAllocCeiling is the recorded allocation ceiling of one pooled run of
// each fuzz target — harness hook, Runner.Reset, and the replay of the
// seed-7 fuzz schedule — on a warm runner. Reset rearms the machines in
// place, so what remains are the protocols' own written values. A machine
// that goes back to being rebuilt, or to formatting or interning register
// names, on every Reset adds allocations and fails here.
var resetAllocCeiling = map[string]float64{
	TargetCommitAdopt: 10,
	TargetConsensus:   14,
	TargetCAChain:     10,
	TargetKSet:        6,
	TargetBG:          4,
}

// resetAllocs returns the number of allocations of runner.Reset alone per
// call, over runs that each replay first (uncounted). Like
// testing.AllocsPerRun it runs at GOMAXPROCS 1 and rounds the mean down.
func resetAllocs(t *testing.T, runner *sim.Runner, replay func()) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		replay()
		runtime.ReadMemStats(&before)
		if err := runner.Reset(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total / runs)
}

// TestPooledResetAllocs pins what rearming buys: after one warm run,
// Runner.Reset alone allocates nothing on any pooled target, nor on the
// netconv heartbeat rig (runner, network and heartbeat detector). A machine
// without Rearm is rebuilt by its factory on every Reset and fails here.
// bg's recyclers still grow a free list now and then while their pools
// warm up (19 allocations over the first 50 resets), which the rounded-down
// mean absorbs.
func TestPooledResetAllocs(t *testing.T) {
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
				if run.Reset != nil {
					run.Reset()
				}
				run.Runner.RunSchedule(s)
			}
			replay()
			if allocs := resetAllocs(t, run.Runner, replay); allocs != 0 {
				t.Errorf("Runner.Reset allocates %.1f times, want 0", allocs)
			}
		})
	}
	t.Run("netconv", func(t *testing.T) {
		const n, steps = 4, 2000
		rig, err := newNetConvRig(msgnet.MatrixSync, NetConvConfig{N: n, Steps: steps, Delta: 2, GST: steps / 4, Probe: 2 + 3*n*(n-1)})
		if err != nil {
			t.Fatal(err)
		}
		defer rig.runner.Close()
		seed := int64(0)
		replay := func() {
			seed++
			if _, _, _, _, err := rig.one(seed, steps); err != nil {
				t.Fatal(err)
			}
		}
		replay()
		if allocs := resetAllocs(t, rig.runner, replay); allocs != 0 {
			t.Errorf("Runner.Reset allocates %.1f times, want 0", allocs)
		}
	})
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

// observedRig is a target's production wiring (see testRig) on an
// observed runner, recording every step into *log. "kset-chain" is the kset
// target on the commit-adopt chain engine, whose consensus rounds intern
// registers as they are reached.
func observedRig(t *testing.T, target string, n int, log *[]string) (*sim.Runner, targetRig) {
	t.Helper()
	rig := testRig(t, target, n)
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
			if a, b := fmt.Sprint(reusedRig.check(procset.EmptySet)), fmt.Sprint(freshRig.check(procset.EmptySet)); a != b {
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
