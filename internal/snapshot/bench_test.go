package snapshot

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// BenchmarkUpdateScanThroughput measures simulated steps per second through
// the snapshot object under contention.
func BenchmarkUpdateScanThroughput(b *testing.B) {
	n := 4
	runner, err := sim.NewRunner(sim.Config{
		N: n,
		Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := New(env, "obj")
				for i := 0; ; i++ {
					o.Update(i)
					o.Scan()
				}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	src, err := sched.Random(n, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Step(src.Next())
	}
}

// updScanMachine alternates Update(val) and Scan through FusedCall on one
// shared snapshot object — the BG substrate's write workload in machine
// form, running on the recycled (epoch-arena) configuration when the runner
// permits it.
type updScanMachine struct {
	o       *MachineObject
	call    *FusedCall
	inScan  bool
	val     any
	started bool
}

func (m *updScanMachine) NextOp(prev any) *sim.Op {
	if m.started {
		if op := m.call.Feed(prev); op != nil {
			return op
		}
		if !m.inScan {
			m.call, m.inScan = m.o.NewFusedScan(), true
			return m.call.Start()
		}
	}
	m.started = true
	m.call, m.inScan = m.o.NewFusedUpdate(m.val), false
	return m.call.Start()
}

func newBGWriteRunner(tb testing.TB, n int) (*sim.Runner, sched.Source) {
	tb.Helper()
	runner, err := sim.NewRunner(sim.Config{
		N: n,
		Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return &updScanMachine{
				o: NewMachineObject(regs, "obj", p, n),
				// Small ints box to the runtime's static cells, so the
				// workload itself does not allocate.
				val: int(p),
			}
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := sched.Random(n, 1, nil)
	if err != nil {
		runner.Close()
		tb.Fatal(err)
	}
	return runner, src
}

// BenchmarkBGWrite measures the recycled snapshot write path — the
// machine-mode counterpart of BenchmarkUpdateScanThroughput and the floor
// under every BG-simulation experiment. The ≈0-alloc steady state is
// asserted by TestBGWriteSteadyStateAllocs; the bench-smoke CI job runs
// both.
func BenchmarkBGWrite(b *testing.B) {
	runner, src := newBGWriteRunner(b, 4)
	defer runner.Close()
	b.ReportAllocs()
	b.ResetTimer()
	runner.Run(src, b.N, 0, nil)
}

// TestBGWriteSteadyStateAllocs is the recycler's headline assertion: once
// the arena is warm, the snapshot write path — segments, embedded views,
// borrows included — allocates nothing per step.
func TestBGWriteSteadyStateAllocs(t *testing.T) {
	runner, src := newBGWriteRunner(t, 4)
	defer runner.Close()
	// Warm up: fill the arena free lists and the retired ring.
	runner.Run(src, 50_000, 0, nil)
	avg := testing.AllocsPerRun(10, func() {
		runner.Run(src, 20_000, 0, nil)
	})
	if avg > 2 {
		t.Errorf("steady-state recycled write path allocates %.2f allocs per 20k-step run, want ≈0", avg)
	}
}
