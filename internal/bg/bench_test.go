package bg

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// newBenchSim builds the never-deciding BG workload of the Theorem 26
// property-(ii) measurement: m simulators over threads simulated threads,
// machine mode, no observer (the recycled configuration).
func newBenchSim(b *testing.B, m, threads int) (*Simulation, *sim.Runner, sched.Source) {
	b.Helper()
	inputs := make([]int, threads+1)
	for i := 1; i <= threads; i++ {
		inputs[i] = i
	}
	proto, err := NewWaitMinProtocol(inputs, m-1)
	if err != nil {
		b.Fatal(err)
	}
	simn, err := New(m, neverDecide{proto})
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.Config{N: m, Machine: simn.Machine})
	if err != nil {
		b.Fatal(err)
	}
	src, err := sched.Random(m, 7, nil)
	if err != nil {
		runner.Close()
		b.Fatal(err)
	}
	return simn, runner, src
}

// BenchmarkBGFusedStep measures ns/step of the machine-mode BG simulation
// on the batched loop — the hot path of the E4 reduction experiment,
// running on the recycled (epoch-arena) configuration.
func BenchmarkBGFusedStep(b *testing.B) {
	_, runner, src := newBenchSim(b, 3, 5)
	defer runner.Close()
	b.ReportAllocs()
	b.ResetTimer()
	runner.Run(src, b.N, 0, nil)
}
