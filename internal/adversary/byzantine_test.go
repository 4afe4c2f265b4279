package adversary

import (
	"bytes"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/commitadopt"
	"github.com/settimeliness/settimeliness/internal/consensus"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestStrategyParseString(t *testing.T) {
	t.Parallel()
	for _, s := range []Strategy{StrategyNone, StrategyFlip, StrategyStale, StrategySplit} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestByzantineConfigValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  ByzantineConfig
	}{
		{"n0", ByzantineConfig{N: 0}},
		{"overlap", ByzantineConfig{N: 3, Crashed: procset.MakeSet(1), Corrupt: procset.MakeSet(1)}},
		{"no_honest", ByzantineConfig{N: 3, Crashed: procset.MakeSet(1), Corrupt: procset.MakeSet(2, 3)}},
		{"outside_pi", ByzantineConfig{N: 3, Corrupt: procset.MakeSet(4)}},
		{"inner_with_crashed", ByzantineConfig{N: 3, Crashed: procset.MakeSet(1), Inner: mustParking(3, 0)}},
	}
	for _, tc := range cases {
		if _, err := NewByzantine(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewByzantine(ByzantineConfig{N: 3, Crashed: procset.MakeSet(3), Corrupt: procset.MakeSet(1), Strategy: StrategyFlip}); err != nil {
		t.Errorf("valid mixed population rejected: %v", err)
	}
}

func mustParking(n int, crashed procset.Set) *Adversary {
	adv, err := New(Config{N: n, CrashedFromStart: crashed})
	if err != nil {
		panic(err)
	}
	return adv
}

func TestDrawPopulation(t *testing.T) {
	t.Parallel()
	c1, b1, err := DrawPopulation(7, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	c2, b2, err := DrawPopulation(7, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || b1 != b2 {
		t.Errorf("same seed drew different populations: (%v,%v) vs (%v,%v)", c1, b1, c2, b2)
	}
	if c1.Size() != 2 || b1.Size() != 2 {
		t.Errorf("sizes: crashed %v byz %v", c1, b1)
	}
	if !c1.Intersect(b1).IsEmpty() {
		t.Errorf("overlap: %v", c1.Intersect(b1))
	}
	if !c1.Union(b1).SubsetOf(procset.FullSet(7)) {
		t.Errorf("outside Π7: %v", c1.Union(b1))
	}
	// Different seeds explore different populations (overwhelmingly).
	varied := false
	for seed := int64(0); seed < 8; seed++ {
		c, b, err := DrawPopulation(7, 2, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		if c != c1 || b != b1 {
			varied = true
		}
	}
	if !varied {
		t.Error("8 seeds all drew the same population")
	}
	if _, _, err := DrawPopulation(3, 2, 1, 1); err == nil {
		t.Error("crash+byz = n accepted")
	}
	if _, _, err := DrawPopulation(3, -1, 0, 1); err == nil {
		t.Error("negative crash count accepted")
	}
}

// caRig is a pooled commit-adopt rig on the mutating-capable configuration
// (machine mode, NoRecycle).
type caRig struct {
	runner  *sim.Runner
	results []*caResult
}

type caResult struct {
	commit bool
	val    any
}

func newCARig(t *testing.T, n int) *caRig {
	t.Helper()
	rig := &caRig{results: make([]*caResult, n+1)}
	runner, err := sim.NewRunner(sim.Config{
		N:         n,
		NoRecycle: true,
		Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return commitadopt.NewProposeMachine(regs, "x", p, n, int(p), func(commit bool, val any) {
				rig.results[p] = &caResult{commit: commit, val: val}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.runner = runner
	t.Cleanup(func() { runner.Close() })
	return rig
}

// consRig is a pooled Disk-Paxos consensus rig (contending attempt loops)
// on the mutating-capable configuration.
type consRig struct {
	runner    *sim.Runner
	decisions []any
}

func newConsRig(t *testing.T, n int) *consRig {
	t.Helper()
	rig := &consRig{decisions: make([]any, n+1)}
	runner, err := sim.NewRunner(sim.Config{
		N:         n,
		NoRecycle: true,
		Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return consensus.AttemptLoopMachine(regs, "c", p, n, int(p)*10, func(d any) {
				rig.decisions[p] = d
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.runner = runner
	t.Cleanup(func() { runner.Close() })
	return rig
}

// honestWalk exposes a Byzantine director's scheduling walk WITHOUT the
// WriteMutator method, so RunDirected routes it down the plain (pre-fault-
// plane) directed fast path. Comparing it against the raw director pins
// that an installed-but-inert mutator replays the honest path bit for bit.
type honestWalk struct{ b *Byzantine }

func (h honestWalk) Next() procset.ID { return h.b.Next() }
func (h honestWalk) OnWrite(slot sim.RegID, proc procset.ID, value any) {
	h.b.OnWrite(slot, proc, value)
}

// TestInertMutatorBitIdentical is satellite 3's core equivalence at the
// director level: the same seeded walk through the mutating step loop
// (StrategyNone) and through the plain directed loop produces bit-identical
// flight-recorder streams and identical workload outcomes.
func TestInertMutatorBitIdentical(t *testing.T) {
	t.Parallel()
	const n, steps = 4, 4000
	run := func(mutating bool) (string, []*caResult, int) {
		rig := newCARig(t, n)
		fl := sim.NewFlightRecorder(steps)
		rig.runner.SetFlightRecorder(fl)
		b, err := NewByzantine(ByzantineConfig{N: n, Seed: 7, Strategy: StrategyNone})
		if err != nil {
			t.Fatal(err)
		}
		var d sim.Director = honestWalk{b}
		if mutating {
			d = b
		}
		res := rig.runner.RunDirected(d, steps, 0, nil)
		var buf bytes.Buffer
		fl.Dump(&buf, rig.runner)
		return buf.String(), rig.results, res.Steps
	}
	plainDump, plainRes, plainSteps := run(false)
	mutDump, mutRes, mutSteps := run(true)
	if plainDump != mutDump {
		t.Errorf("flight streams diverge:\nplain:\n%s\nmutating:\n%s", head(plainDump), head(mutDump))
	}
	if plainSteps != mutSteps {
		t.Errorf("steps: %d vs %d", plainSteps, mutSteps)
	}
	for p := 1; p <= n; p++ {
		pr, mr := plainRes[p], mutRes[p]
		switch {
		case (pr == nil) != (mr == nil):
			t.Errorf("p%d finished on one path only", p)
		case pr != nil && *pr != *mr:
			t.Errorf("p%d: %+v vs %+v", p, *pr, *mr)
		}
	}
}

func head(s string) string {
	lines := strings.SplitN(s, "\n", 12)
	if len(lines) > 11 {
		lines = lines[:11]
	}
	return strings.Join(lines, "\n")
}

// TestByzantineDeterministicReplay: Reset replays the identical corrupted
// run — same mutation count, same trace, same decisions.
func TestByzantineDeterministicReplay(t *testing.T) {
	t.Parallel()
	const n = 3
	rig := newConsRig(t, n)
	// Stale corrupts every write of the faulty process (flip would only hit
	// the rarely-written int decision register on this rig).
	b, err := NewByzantine(ByzantineConfig{
		N: n, Corrupt: procset.MakeSet(1), Strategy: StrategyStale, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		steps, mutations int
		trace            string
		decisions        [n + 1]any
	}
	run := func() outcome {
		b.Reset()
		clear(rig.decisions)
		if err := rig.runner.Reset(); err != nil {
			t.Fatal(err)
		}
		steps, _ := b.DriveDirected(rig.runner, 5000, 0, nil)
		var o outcome
		o.steps, o.mutations, o.trace = steps, b.Mutations(), b.FormatTrace(rig.runner)
		copy(o.decisions[:], rig.decisions)
		return o
	}
	first := run()
	if first.mutations == 0 {
		t.Fatal("stale corruption on the consensus rig corrupted nothing; the replay test is vacuous")
	}
	second := run()
	if first != second {
		t.Errorf("replay diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
	if !strings.Contains(first.trace, "stale") || !strings.Contains(first.trace, "->") {
		t.Errorf("trace lacks strategy/mutation detail:\n%s", first.trace)
	}
}

// loopWriter endlessly writes an incrementing counter to its own register —
// a workload where every step of the corrupt process is a mutable int
// write, giving the budget/trace tests full control over mutation volume.
type loopWriter struct {
	ref sim.Ref
	i   int
	op  sim.Op
}

func (m *loopWriter) NextOp(prev any) *sim.Op {
	m.i++
	m.op = sim.WriteOp(m.ref, m.i)
	return &m.op
}

func newLoopRig(t *testing.T, n int) *sim.Runner {
	t.Helper()
	runner, err := sim.NewRunner(sim.Config{
		N:         n,
		NoRecycle: true,
		Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return &loopWriter{ref: regs.Reg("w." + p.String())}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { runner.Close() })
	return runner
}

// TestBudgetCapsMutations: a budget of 2 corrupts exactly two writes and
// lets the rest land honestly.
func TestBudgetCapsMutations(t *testing.T) {
	t.Parallel()
	const n = 3
	runner := newLoopRig(t, n)
	unlimited, err := NewByzantine(ByzantineConfig{N: n, Corrupt: procset.MakeSet(1), Strategy: StrategyFlip, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	unlimited.DriveDirected(runner, 500, 0, nil)
	if unlimited.Mutations() < 3 {
		t.Fatalf("unlimited run corrupted only %d writes; budget test needs ≥ 3", unlimited.Mutations())
	}
	capped, err := NewByzantine(ByzantineConfig{N: n, Corrupt: procset.MakeSet(1), Strategy: StrategyFlip, Seed: 11, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Reset(); err != nil {
		t.Fatal(err)
	}
	capped.DriveDirected(runner, 500, 0, nil)
	if capped.Mutations() != 2 {
		t.Errorf("budget 2 run corrupted %d writes", capped.Mutations())
	}
}

// TestTraceBounded: the retained trace stops at TraceLimit while mutations
// keep counting.
func TestTraceBounded(t *testing.T) {
	t.Parallel()
	const n = 3
	runner := newLoopRig(t, n)
	b, err := NewByzantine(ByzantineConfig{N: n, Corrupt: procset.MakeSet(1), Strategy: StrategyFlip, Seed: 11, TraceLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	b.DriveDirected(runner, 500, 0, nil)
	if b.Mutations() < 3 {
		t.Fatalf("run corrupted only %d writes; bound test needs ≥ 3", b.Mutations())
	}
	if len(b.Trace()) != 2 {
		t.Errorf("retained %d trace entries, want the bound 2", len(b.Trace()))
	}
	if !strings.Contains(b.FormatTrace(runner), "first 2 retained") {
		t.Errorf("FormatTrace does not flag truncation:\n%s", b.FormatTrace(runner))
	}
}

// TestFaultClassTagging: DriveDirected tags crashed and Byzantine processes
// on the runner, and flight dumps annotate their steps.
func TestFaultClassTagging(t *testing.T) {
	t.Parallel()
	const n = 4
	rig := newConsRig(t, n)
	fl := sim.NewFlightRecorder(256)
	rig.runner.SetFlightRecorder(fl)
	b, err := NewByzantine(ByzantineConfig{
		N: n, Crashed: procset.MakeSet(4), Corrupt: procset.MakeSet(1), Strategy: StrategyFlip, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.DriveDirected(rig.runner, 2000, 0, nil)
	if got := rig.runner.FaultClass(1); got != sim.FaultByzantine {
		t.Errorf("p1 class %v, want byzantine", got)
	}
	if got := rig.runner.FaultClass(4); got != sim.FaultCrashed {
		t.Errorf("p4 class %v, want crashed", got)
	}
	if got := rig.runner.FaultClass(2); got != sim.FaultHonest {
		t.Errorf("p2 class %v, want honest", got)
	}
	var buf bytes.Buffer
	fl.Dump(&buf, rig.runner)
	if !strings.Contains(buf.String(), "[byzantine]") {
		t.Error("flight dump lacks the [byzantine] annotation")
	}
	if strings.Contains(buf.String(), "p4") {
		t.Error("crashed p4 was scheduled")
	}
	// Reset clears the tags.
	if err := rig.runner.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := rig.runner.FaultClass(1); got != sim.FaultHonest {
		t.Errorf("p1 class %v after Reset, want honest", got)
	}
}

// TestComposeWithParking: with an inner parking adversary and no corruption,
// the composed director replays the plain parking run bit for bit; with
// corruption enabled the composition still schedules exactly like the inner
// adversary (the mutation plane does not perturb scheduling).
func TestComposeWithParking(t *testing.T) {
	t.Parallel()
	const n, steps = 4, 6000
	run := func(compose bool, corrupt procset.Set, strat Strategy) (string, string) {
		rig := newCARig(t, n)
		fl := sim.NewFlightRecorder(steps)
		rig.runner.SetFlightRecorder(fl)
		adv := mustParking(n, 0)
		var d sim.Director = adv
		b := (*Byzantine)(nil)
		if compose {
			var err error
			b, err = NewByzantine(ByzantineConfig{N: n, Corrupt: corrupt, Strategy: strat, Inner: adv})
			if err != nil {
				t.Fatal(err)
			}
			d = b
		}
		if bb, ok := d.(*Byzantine); ok {
			bb.DriveDirected(rig.runner, steps, 0, nil)
		} else {
			adv.DriveDirected(rig.runner, steps, 0, nil)
		}
		var buf bytes.Buffer
		fl.Dump(&buf, rig.runner)
		return adv.Schedule().String(), buf.String()
	}
	plainSched, plainDump := run(false, 0, StrategyNone)
	composedSched, composedDump := run(true, 0, StrategyNone)
	if plainSched != composedSched {
		t.Error("inert composition changed the parking schedule")
	}
	if plainDump != composedDump {
		t.Errorf("inert composition changed the step stream:\nplain:\n%s\ncomposed:\n%s",
			head(plainDump), head(composedDump))
	}
	corruptSched, _ := run(true, procset.MakeSet(2), StrategyFlip)
	if corruptSched != plainSched {
		t.Error("enabling corruption perturbed the inner adversary's scheduling decisions")
	}
}

// TestMutatorPathGuards: the two loud panics — a mutating director on a
// recycling runner, and on a non-machine (coroutine) runner.
func TestMutatorPathGuards(t *testing.T) {
	t.Parallel()
	b, err := NewByzantine(ByzantineConfig{N: 3, Corrupt: procset.MakeSet(1), Strategy: StrategyFlip})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("recycling_runner", func(t *testing.T) {
		t.Parallel()
		rig := &consRig{decisions: make([]any, 4)}
		runner, err := sim.NewRunner(sim.Config{
			N: 3,
			Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
				return consensus.AttemptLoopMachine(regs, "c", p, 3, int(p)*10, func(d any) { rig.decisions[p] = d })
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer runner.Close()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "NoRecycle") {
				t.Errorf("recover = %v, want the NoRecycle panic", r)
			}
		}()
		runner.RunDirected(b, 100, 0, nil)
	})
	t.Run("coroutine_runner", func(t *testing.T) {
		t.Parallel()
		runner, err := sim.NewRunner(sim.Config{
			N: 3,
			Algorithm: func(p procset.ID) sim.Algorithm {
				return func(env sim.Env) {
					c, v := commitadopt.New(env, "x").Propose(int(p))
					_, _ = c, v
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer runner.Close()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "machine-mode") {
				t.Errorf("recover = %v, want the machine-mode panic", r)
			}
		}()
		runner.RunDirected(b, 100, 0, nil)
	})
}

// TestFlipViolatesConsensus is the director-level mutant detection: an
// unbounded flip corruption on the contending-proposers consensus rig must
// produce an honest-side safety violation (a decided value outside the
// proposal domain) on at least one seed in a small deterministic range. If
// this fails, the fault plane is not actually injecting faults that matter
// and every campaign above it is at risk of false green.
func TestFlipViolatesConsensus(t *testing.T) {
	t.Parallel()
	const n = 3
	rig := newConsRig(t, n)
	b, err := NewByzantine(ByzantineConfig{N: n, Corrupt: procset.MakeSet(1), Strategy: StrategyFlip})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		if err := b.Reconfigure(ByzantineConfig{N: n, Corrupt: procset.MakeSet(1), Strategy: StrategyFlip, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		clear(rig.decisions)
		if err := rig.runner.Reset(); err != nil {
			t.Fatal(err)
		}
		b.DriveDirected(rig.runner, 5000, 0, nil)
		for p := 2; p <= n; p++ { // honest processes only
			if d, ok := rig.decisions[p].(int); ok && (d%10 != 0 || d < 10 || d > 10*n) {
				t.Logf("seed %d: honest p%d decided corrupted value %d after %d mutation(s)", seed, p, d, b.Mutations())
				return
			}
		}
	}
	t.Fatal("no honest process adopted a corrupted decision across 20 seeds; flip corruption is inert")
}
