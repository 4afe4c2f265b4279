package live

import (
	"testing"
	"time"

	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func counter(env sim.Env) {
	c := env.Reg("counter")
	for {
		v, _ := env.Read(c).(int)
		env.Write(c, v+1)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	algo := func(procset.ID) sim.Algorithm { return counter }
	if _, err := New(Config{N: 0, Algorithm: algo}); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := New(Config{N: 2}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := New(Config{N: 2, Algorithm: algo, Bound: 1}); err == nil {
		t.Error("governance without P/Q accepted")
	}
	if _, err := New(Config{N: 2, Algorithm: algo, P: procset.MakeSet(3), Q: procset.MakeSet(1), Bound: 1}); err == nil {
		t.Error("P outside Πn accepted")
	}
	if _, err := New(Config{
		N: 2, Algorithm: algo,
		P: procset.MakeSet(1), Q: procset.MakeSet(2), Bound: 2,
		CrashAfterOps: map[procset.ID]int{1: 5},
	}); err == nil {
		t.Error("crashing governed P accepted")
	}
}

func TestProcessesMakeProgress(t *testing.T) {
	t.Parallel()
	rt, err := New(Config{N: 4, Algorithm: func(procset.ID) sim.Algorithm { return counter }})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	ok := rt.WaitUntil(func() bool {
		for p := procset.ID(1); p <= 4; p++ {
			if rt.Ops(p) < 100 {
				return false
			}
		}
		return true
	}, time.Millisecond, 5*time.Second)
	rt.Stop()
	if !ok {
		t.Fatal("processes made no progress")
	}
	s := rt.Schedule()
	if s.Participants() != procset.FullSet(4) {
		t.Errorf("participants = %v", s.Participants())
	}
	if err := rt.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

func TestCrashInjection(t *testing.T) {
	t.Parallel()
	rt, err := New(Config{
		N:             3,
		Algorithm:     func(procset.ID) sim.Algorithm { return counter },
		CrashAfterOps: map[procset.ID]int{2: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the crashing process has certainly hit its limit (goroutine
	// scheduling may let others race far ahead of it).
	reached := rt.WaitUntil(func() bool {
		return rt.Ops(2) >= 17 && rt.Ops(1) > 100 && rt.Ops(3) > 100
	}, time.Millisecond, 10*time.Second)
	rt.Stop()
	if !reached {
		t.Fatalf("progress stalled: ops = %d/%d/%d", rt.Ops(1), rt.Ops(2), rt.Ops(3))
	}
	if got := rt.Ops(2); got != 17 {
		t.Errorf("crashed process performed %d ops, want exactly 17", got)
	}
}

func TestGovernorEnforcesTimeliness(t *testing.T) {
	t.Parallel()
	p := procset.MakeSet(1)
	q := procset.MakeSet(2, 3)
	for _, bound := range []int{1, 3} {
		rt, err := New(Config{
			N:         3,
			Algorithm: func(procset.ID) sim.Algorithm { return counter },
			P:         p, Q: q, Bound: bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		rt.WaitUntil(func() bool { return rt.Ops(1) > 2000 }, time.Millisecond, 5*time.Second)
		rt.Stop()
		s := rt.Schedule()
		if len(s) < 1000 {
			t.Fatalf("bound %d: schedule too short (%d)", bound, len(s))
		}
		if gap := sched.MaxQGap(s, p, q); gap >= bound {
			t.Errorf("bound %d: MaxQGap = %d on live schedule", bound, gap)
		}
	}
}

// TestAgreementOnLiveRuntime runs the full Theorem 24 stack on real
// goroutines: the emerging schedule is governed into S^2_{3,4} and all
// correct processes must decide with at most 2 values.
func TestAgreementOnLiveRuntime(t *testing.T) {
	t.Parallel()
	cfg := kset.Config{N: 4, K: 2, T: 2}
	ag, err := kset.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := procset.MakeSet(1, 2)
	q := procset.MakeSet(1, 2, 3)
	rt, err := New(Config{
		N:         4,
		Algorithm: ag.Algorithm(func(pid procset.ID) any { return int(pid) * 7 }),
		P:         p, Q: q, Bound: 6,
		CrashAfterOps: map[procset.ID]int{4: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	correct := procset.MakeSet(1, 2, 3)
	decided := rt.WaitUntil(func() bool {
		return correct.SubsetOf(ag.DecidedSet())
	}, time.Millisecond, 30*time.Second)
	rt.Stop()
	if !decided {
		t.Fatalf("correct processes did not decide on the live runtime (decided %v)", ag.DecidedSet())
	}
	run := check.AgreementRun{
		N: 4, K: 2, T: 2,
		Proposals: map[procset.ID]any{1: 7, 2: 14, 3: 21, 4: 28},
		Decisions: map[procset.ID]any{},
		Correct:   correct,
	}
	for pid := procset.ID(1); pid <= 4; pid++ {
		if v, ok := ag.Decision(pid); ok {
			run.Decisions[pid] = v
		}
	}
	if err := run.Verify(); err != nil {
		t.Error(err)
	}
	// The recorded schedule must witness S^2_{3,4}.
	s := rt.Schedule()
	if gap := sched.MaxQGap(s, p, q); gap >= 6 {
		t.Errorf("recorded schedule violates the governed bound: gap %d", gap)
	}
}

func TestStopUnblocksGovernedProcesses(t *testing.T) {
	t.Parallel()
	// P halts immediately, so Q becomes blocked by the governor; Stop must
	// still terminate everything.
	rt, err := New(Config{
		N: 2,
		Algorithm: func(p procset.ID) sim.Algorithm {
			if p == 1 {
				return func(env sim.Env) { env.Write(env.Reg("x"), 1) }
			}
			return counter
		},
		P: procset.MakeSet(1), Q: procset.MakeSet(2), Bound: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		rt.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked with governed processes blocked")
	}
}

func TestLiveMonitorMatchesRecordedSchedule(t *testing.T) {
	t.Parallel()
	const n = 3
	mon, err := obs.NewMonitor(obs.MonitorConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		N:         n,
		Algorithm: func(procset.ID) sim.Algorithm { return counter },
		P:         procset.MakeSet(1),
		Q:         procset.MakeSet(2, 3),
		Bound:     3,
		Monitor:   mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// The governor admits Q operations only between P operations, and P's
	// tight loop dominates the runtime lock, so Q progresses slowly: demand
	// plenty of P ops but only a handful from each governed process.
	ok := rt.WaitUntil(func() bool {
		return rt.Ops(1) >= 200 && rt.Ops(2) >= 20 && rt.Ops(3) >= 20
	}, time.Millisecond, 20*time.Second)

	// Query the graph mid-run: the governor enforces P={p1} timely w.r.t.
	// Q={p2,p3} with bound 3, so the online monitor must see S^1_{2,3} held
	// with that bound right now, while everything is still moving.
	var midHeld bool
	rt.WithMonitor(func(m *obs.Monitor) {
		midHeld = m.IsTimely(procset.MakeSet(1), procset.MakeSet(2, 3), 3)
	})
	rt.Stop()
	if !ok {
		t.Fatal("processes made no progress")
	}
	if !midHeld {
		t.Error("mid-run monitor query says the governed relation does not hold")
	}

	// After Stop the monitor's answers must be the batch extractor's answers
	// on the recorded schedule — the wild live schedule is the equivalence
	// fixture here.
	s := rt.Schedule()
	rt.WithMonitor(func(m *obs.Monitor) {
		if m.Steps() != len(s) {
			t.Fatalf("monitor observed %d steps, schedule recorded %d", m.Steps(), len(s))
		}
		for i := 1; i <= n; i++ {
			for j := i; j <= n; j++ {
				if got, want := m.Best(i, j), sched.BestPair(s, n, i, j); got != want {
					t.Errorf("Best(%d,%d) = %+v, batch says %+v", i, j, got, want)
				}
			}
		}
	})
}
