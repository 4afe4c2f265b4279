package obs_test

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// mixedSchedule draws steps of a random regime and a rotating starver that
// alternate every 512 steps, the shape of the benchmark's monitored
// schedules.
func mixedSchedule(tb testing.TB, n int, seed int64, steps int) sched.Schedule {
	tb.Helper()
	random, err := sched.Random(n, seed, nil)
	if err != nil {
		tb.Fatal(err)
	}
	starver, err := sched.RotatingStarver(n, 1+int(uint64(seed)%uint64(n-1)), 1)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := sched.Interleave(random, starver, 512, 512)
	if err != nil {
		tb.Fatal(err)
	}
	return sched.Take(src, steps)
}

// BenchmarkMonitorObserve is the online fold's cost per observed step over
// the whole S^i_{j,n} family, fed in 256-step blocks. One op is one step.
func BenchmarkMonitorObserve(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := mixedSchedule(b, n, 7, 1<<14)
			m, err := obs.NewMonitor(obs.MonitorConfig{N: n})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				lo := done % len(s)
				hi := min(lo+256, len(s), lo+b.N-done)
				m.ObserveBlock(s[lo:hi])
				done += hi - lo
			}
		})
	}
}

// foldSteps is the length of the benchmark's monitored schedules per n.
var foldSteps = map[int]int{4: 128_000, 5: 40_000, 6: 10_000}

// BenchmarkMonitorFold is one pass of a fresh monitor over one
// benchmark-shaped schedule (128k, 40k and 10k mixed steps at n = 4, 5, 6),
// fed in 256-step blocks. Unlike BenchmarkMonitorObserve, whose monitor has
// long reached its steady state, it includes the early steps, where the
// maxima are still small and more closing windows fold, and the monitor's
// construction. One op is one pass.
func BenchmarkMonitorFold(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := mixedSchedule(b, n, 7, foldSteps[n])
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				m, err := obs.NewMonitor(obs.MonitorConfig{N: n})
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(s); lo += 256 {
					m.ObserveBlock(s[lo:min(lo+256, len(s))])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)), "ns/step")
		})
	}
}

// Observing a step allocates nothing at every n of the full family and
// under a Sizes restriction; neither does Reset.
func TestMonitorObserveAllocs(t *testing.T) {
	var cfgs []obs.MonitorConfig
	for n := 2; n <= 6; n++ {
		cfgs = append(cfgs, obs.MonitorConfig{N: n})
	}
	cfgs = append(cfgs, obs.MonitorConfig{N: 6, Sizes: [][2]int{{1, 6}, {3, 5}, {4, 5}}})
	for _, cfg := range cfgs {
		m, err := obs.NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := mixedSchedule(t, cfg.N, 3, 2048)
		k := 0
		if avg := testing.AllocsPerRun(100, func() {
			m.Observe(s[k%len(s)])
			k++
		}); avg != 0 {
			t.Fatalf("%+v: Observe allocates %.1f times per step", cfg, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { m.ObserveBlock(s[:256]) }); avg != 0 {
			t.Fatalf("%+v: ObserveBlock allocates %.1f times per block", cfg, avg)
		}
		if avg := testing.AllocsPerRun(20, m.Reset); avg != 0 {
			t.Fatalf("%+v: Reset allocates %.1f times", cfg, avg)
		}
	}
}

// HeldClasses allocates nothing at any n of the relations family, with a
// bound that holds classes and with one below 1.
func TestHeldClassesAllocs(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := mixedSchedule(t, n, 3, 2000)
		for _, bound := range []int{0, 4} {
			if avg := testing.AllocsPerRun(10, func() { obs.HeldClasses(s, n, bound) }); avg != 0 {
				t.Fatalf("n=%d bound %d: HeldClasses allocates %.1f times per call", n, bound, avg)
			}
		}
	}
}

// BenchmarkMonitorGraph is the cost of one timeliness-graph query over the
// whole family at n = 6, after 10,000 observed steps.
func BenchmarkMonitorGraph(b *testing.B) {
	m, err := obs.NewMonitor(obs.MonitorConfig{N: 6})
	if err != nil {
		b.Fatal(err)
	}
	m.ObserveBlock(mixedSchedule(b, 6, 7, 10_000))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		m.Graph(4)
	}
}
