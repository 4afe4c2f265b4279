package explore

import (
	"testing"
	"time"

	"github.com/settimeliness/settimeliness/internal/sched"
)

// BenchmarkExhaustiveReducedStates measures the reduced explorer's
// throughput — prefix states expanded per second, replays included — on the
// n = 3 consensus sweep, the shape the reduction acceptance test pins.
func BenchmarkExhaustiveReducedStates(b *testing.B) {
	build, err := PooledTargetBuilder(TargetConsensus, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var states int64
	for i := 0; i < b.N; i++ {
		stats, err := ExhaustiveReduced(3, 8, build)
		if err != nil {
			b.Fatal(err)
		}
		states += int64(stats.States)
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

// pooledTargets lists the five pooled fuzz targets in campaign order.
var pooledTargets = []string{TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG}

// fuzzSchedule is one run of the nightly fuzz shape: n = 4, a 300-step
// failure-free random schedule.
func fuzzSchedule(tb testing.TB, seed int64) sched.Schedule {
	tb.Helper()
	src, err := sched.Random(4, seed, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return sched.Take(src, 300)
}

// BenchmarkPooledReset measures one pooled run of a fuzz target: the
// harness hook plus Runner.Reset on a runner that has just replayed a
// fuzz-shaped schedule, so every reset rewinds a run's worth of register
// values, recycler state and machines, then the replay of that schedule.
// One op is one reset and replay; reset-ns/op is the reset's share, timed
// with time.Now around the hook and Reset rather than by stopping the
// benchmark timer, whose every stop and start reads the memory statistics
// and would outweigh a reset. TestPooledResetAllocs pins Reset alone to 0
// allocations.
func BenchmarkPooledReset(b *testing.B) {
	for _, target := range pooledTargets {
		b.Run(target, func(b *testing.B) {
			build, err := PooledTargetBuilder(target, 4)
			if err != nil {
				b.Fatal(err)
			}
			run, err := build()
			if err != nil {
				b.Fatal(err)
			}
			defer run.Runner.Close()
			s := fuzzSchedule(b, 7)
			run.Runner.RunSchedule(s)
			var reset time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if run.Reset != nil {
					run.Reset()
				}
				if err := run.Runner.Reset(); err != nil {
					b.Fatal(err)
				}
				reset += time.Since(t0)
				run.Runner.RunSchedule(s)
			}
			b.ReportMetric(float64(reset.Nanoseconds())/float64(b.N), "reset-ns/op")
		})
	}
}
