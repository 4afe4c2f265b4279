package consensus

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// runContenders executes the contending-proposer workload (process p
// repeatedly attempts 10·p) over the schedule in the requested mode and
// returns the StepInfo stream plus the delivered decisions.
func runContenders(t *testing.T, n int, s sched.Schedule, machineMode bool) ([]sim.StepInfo, []any) {
	t.Helper()
	var trace []sim.StepInfo
	decisions := make([]any, n+1)
	cfg := sim.Config{N: n, Observer: func(info sim.StepInfo) { trace = append(trace, info) }}
	if machineMode {
		cfg.Machine = func(p procset.ID, regs sim.Registry) sim.Machine {
			return AttemptLoopMachine(regs, "c", p, n, int(p)*10, func(d any) { decisions[p] = d })
		}
	} else {
		cfg.Algorithm = func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				in := NewInstance(env, "c")
				for {
					if d, ok := in.Attempt(int(p) * 10); ok {
						decisions[p] = d
						return
					}
				}
			}
		}
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	return trace, decisions
}

// TestInstanceMachineMatchesInstance is the port's contract: the machine
// form of the Attempt loop replays the coroutine form bit for bit across
// schedules that exercise contention, aborted ballots, and adoption.
func TestInstanceMachineMatchesInstance(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		n       int
		seed    int64
		steps   int
		crashes map[procset.ID]int
	}{
		{"n2", 2, 5, 400, nil},
		{"n3", 3, 11, 1500, nil},
		{"n4-crash", 4, 7, 2500, map[procset.ID]int{2: 60}},
		{"n5", 5, 23, 4000, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.n, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, tc.steps)
			coroTrace, coroDec := runContenders(t, tc.n, s, false)
			machTrace, machDec := runContenders(t, tc.n, s, true)
			if len(coroTrace) != len(machTrace) {
				t.Fatalf("trace lengths differ: %d vs %d", len(coroTrace), len(machTrace))
			}
			for i := range coroTrace {
				if coroTrace[i] != machTrace[i] {
					t.Fatalf("traces diverge at step %d:\n  %+v\n  %+v", i, coroTrace[i], machTrace[i])
				}
			}
			for p := 1; p <= tc.n; p++ {
				if coroDec[p] != machDec[p] {
					t.Fatalf("p%d decision differs: %v vs %v", p, coroDec[p], machDec[p])
				}
			}
		})
	}
}

// TestInstanceMachineCheckWithoutSteps pins the cached-decision fast path:
// once a call has delivered a decision, further Start* calls complete with
// no operation.
func TestInstanceMachineCheckWithoutSteps(t *testing.T) {
	t.Parallel()
	r, err := sim.NewRunner(sim.Config{N: 1, Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
		m := NewInstanceMachine(regs, "solo", p, 1)
		inFlight := false
		var opBuf sim.Op
		return sim.MachineFunc(func(prev any) *sim.Op {
			var op sim.Op
			var hasOp bool
			if inFlight {
				op, hasOp = m.Feed(prev)
			} else {
				op, hasOp = m.StartAttempt(99)
				inFlight = true
			}
			if hasOp {
				opBuf = op
				return &opBuf
			}
			if d, ok := m.Result(); !ok || d != 99 {
				t.Errorf("solo attempt resolved (%v,%v), want (99,true)", d, ok)
			}
			if _, hasOp := m.StartCheck(); hasOp {
				t.Error("StartCheck issued an operation after a cached decision")
			}
			if d, ok := m.Result(); !ok || d != 99 {
				t.Errorf("cached check resolved (%v,%v), want (99,true)", d, ok)
			}
			if _, hasOp := m.StartAttempt(5); hasOp {
				t.Error("StartAttempt issued an operation after a cached decision")
			}
			return nil
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// A solo attempt costs 1 check read + 2 writes + 0 peer reads + 1
	// decision write = 4 steps; run a few extra (noops after the halt).
	for i := 0; i < 6; i++ {
		r.Step(1)
	}
	if !r.Halted(1) {
		t.Fatal("machine did not halt after deciding")
	}
}
