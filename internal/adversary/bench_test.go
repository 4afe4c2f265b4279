package adversary

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// newBenchRig builds the Theorem 24 workload on the machine engine plus a
// pooled adversary, the exact configuration of the negative matrix cells.
func newBenchRig(b *testing.B, cfg kset.Config) (*kset.Agreement, *sim.Runner, *Adversary) {
	b.Helper()
	ag, err := kset.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{
		N:       cfg.N,
		Machine: ag.Machine(func(p procset.ID) any { return int(p) }),
	})
	if err != nil {
		b.Fatal(err)
	}
	adv, err := New(Config{N: cfg.N})
	if err != nil {
		runner.Close()
		b.Fatal(err)
	}
	return ag, runner, adv
}

// BenchmarkAdversaryDrive measures the directed fast path (RunDirected →
// dense register metadata) on the Theorem 24 workload; the bench-smoke CI
// job runs it. The b.N steps are driven as back-to-back runs of
// DefaultScheduleLimit steps, the rig reset before each run with the timer
// stopped, after one untimed run that warms the rig as a pooled matrix rig
// is warm: a detector's per-step cost changes as its run grows, and a rig's
// first run pays its one-time growth, so one run of b.N steps would make
// ns/op depend on b.N.
func BenchmarkAdversaryDrive(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  kset.Config
	}{
		{"directed", kset.Config{N: 4, K: 2, T: 2}},
		// The matrix's widest detector: |Π36| = 20 rows, a 120-read collect.
		{"directed-n6k3t3", kset.Config{N: 6, K: 3, T: 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ag, runner, adv := newBenchRig(b, bc.cfg)
			defer runner.Close()
			adv.DriveDirected(runner, DefaultScheduleLimit, 200, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for left := b.N; left > 0; left -= DefaultScheduleLimit {
				b.StopTimer()
				ag.Reset()
				if err := runner.Reset(); err != nil {
					b.Fatal(err)
				}
				adv.Reset()
				b.StartTimer()
				adv.DriveDirected(runner, min(left, DefaultScheduleLimit), 200, nil)
			}
		})
	}
}

// readOnlyMachine reads one register forever: the workload that isolates the
// directed loop itself (no writes, so no value boxing) for the steady-state
// allocation assertion.
type readOnlyMachine struct {
	reg sim.Ref
	op  sim.Op
}

func (m *readOnlyMachine) NextOp(prev any) *sim.Op {
	m.op = sim.ReadOp(m.reg)
	return &m.op
}

// smallWriteMachine alternates a read with a write of a small int (boxed to
// the runtime's static cells, so the workload itself does not allocate),
// exercising the OnWrite metadata lookup.
type smallWriteMachine struct {
	reg  sim.Ref
	flip bool
	op   sim.Op
}

func (m *smallWriteMachine) NextOp(prev any) *sim.Op {
	m.flip = !m.flip
	if m.flip {
		m.op = sim.WriteOp(m.reg, 7)
		return &m.op
	}
	m.op = sim.ReadOp(m.reg)
	return &m.op
}

// TestDirectedSteadyStateAllocs is the satellite's ≈0-alloc assertion: once
// the schedule-recording prefix is full and the metadata table warm, a
// directed run allocates nothing per step — on a read-only workload, on a
// writing workload that exercises the OnWrite path, and on the Theorem 24
// kset workload the matrix's unsolvable cells run, detector collects
// included. The kset bound is not zero: heartbeats and accusation counters
// outgrow the runtime's preboxed small ints, and the detector boxes each
// new value once per runner (whichever process writes it first), about one
// allocation per 100 steps at n = 4 (93 per run). A bound of 150 per run
// fails a detector that goes back to boxing every write (277 per run), and
// anything that allocates per step or per collect.
func TestDirectedSteadyStateAllocs(t *testing.T) {
	const steps = 10_000
	agreement := func(cfg kset.Config) func(p procset.ID, regs sim.Registry) sim.Machine {
		ag, err := kset.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ag.Machine(func(p procset.ID) any { return int(p) })
	}
	workloads := []struct {
		name     string
		n        int
		machine  func(p procset.ID, regs sim.Registry) sim.Machine
		maxAlloc float64 // allocations per steps-long run
	}{
		{"reads", 3, func(p procset.ID, regs sim.Registry) sim.Machine {
			return &readOnlyMachine{reg: regs.Reg("r")}
		}, 0.5},
		{"writes", 3, func(p procset.ID, regs sim.Registry) sim.Machine {
			return &smallWriteMachine{reg: regs.Reg("w")}
		}, 0.5},
		{"kset-detector", 4, agreement(kset.Config{N: 4, K: 2, T: 2}), 150},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			runner, err := sim.NewRunner(sim.Config{N: w.n, Machine: w.machine})
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			adv, err := New(Config{N: w.n, ScheduleLimit: 100})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: fill the schedule prefix and the metadata table.
			adv.DriveDirected(runner, 1000, 0, nil)
			avg := testing.AllocsPerRun(10, func() {
				adv.DriveDirected(runner, steps, 200, nil)
			})
			if avg > w.maxAlloc {
				t.Errorf("steady-state directed run allocates %.2f allocs per %d-step run, want at most %.1f", avg, steps, w.maxAlloc)
			}
			t.Logf("%.1f allocs per %d-step run", avg, steps)
		})
	}
}
