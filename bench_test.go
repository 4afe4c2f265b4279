// Benchmarks regenerating every figure/theorem artifact of the paper (one
// benchmark per experiment, E1–E8), plus micro-benchmarks of the substrate
// layers. The experiments assert their claims internally — a benchmark
// failure means the paper stopped reproducing, not merely a slowdown.
//
//	go test -bench=. -benchmem
package settimeliness_test

import (
	"context"
	"fmt"
	"testing"

	stm "github.com/settimeliness/settimeliness"
	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(experiments.Config{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s did not reproduce:\n%s", id, res.Render())
		}
	}
}

// BenchmarkE1Figure1 regenerates Figure 1 (set-timeliness analysis of the
// example schedule).
func BenchmarkE1Figure1(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2AntiOmega regenerates Figure 2 / Theorem 23 (t-resilient
// k-anti-Ω in S^k_{t+1,n}).
func BenchmarkE2AntiOmega(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Agreement regenerates Theorem 24 / Corollary 25
// ((t,k,n)-agreement in S^k_{t+1,n}).
func BenchmarkE3Agreement(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Separation regenerates Theorem 26 (the (k,k,n) separation,
// including the BG-simulation reduction).
func BenchmarkE4Separation(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Matrix regenerates the Theorem 27 solvability matrix.
func BenchmarkE5Matrix(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Observations regenerates Observations 2–5.
func BenchmarkE6Observations(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Lemmas regenerates the Lemma 10–22 mechanism checks.
func BenchmarkE7Lemmas(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Ablations regenerates the design-choice ablations.
func BenchmarkE8Ablations(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9IIS regenerates the §6 IIS-vs-timeliness demonstration.
func BenchmarkE9IIS(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkDetectorConvergence measures end-to-end Figure 2 convergence
// (steps to a stable common winnerset) across system sizes.
func BenchmarkDetectorConvergence(b *testing.B) {
	for _, size := range []struct{ n, k, t int }{{4, 2, 2}, {5, 2, 3}, {6, 3, 3}} {
		size := size
		b.Run(fmt.Sprintf("n%dk%dt%d", size.n, size.k, size.t), func(b *testing.B) {
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				res, err := stm.RunDetector(context.Background(),
					stm.WithDetector(size.n, size.k, size.t),
					stm.WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stable {
					b.Fatal("detector did not stabilize")
				}
				totalSteps += res.Steps
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/run")
		})
	}
}

// BenchmarkAgreementLatency measures end-to-end decision latency of the
// Theorem 24 construction in its matching system.
func BenchmarkAgreementLatency(b *testing.B) {
	for _, size := range []struct{ n, k, t int }{{3, 1, 1}, {4, 2, 2}, {5, 2, 3}} {
		size := size
		b.Run(fmt.Sprintf("n%dk%dt%d", size.n, size.k, size.t), func(b *testing.B) {
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				res, err := stm.Solve(context.Background(),
					stm.WithProblem(stm.NewProblem(size.t, size.k, size.n)),
					stm.WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				totalSteps += res.Steps
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/run")
		})
	}
}

// BenchmarkBoundSweep measures how detector convergence scales with the
// Definition 1 bound enforced by the schedule generator — the quantitative
// series the paper's model implies: larger bounds mean longer starvation
// windows before the guarantee kicks in, so stabilization takes longer and
// timeouts adapt higher.
func BenchmarkBoundSweep(b *testing.B) {
	for _, bound := range []int{2, 4, 16, 64} {
		bound := bound
		b.Run(fmt.Sprintf("bound%d", bound), func(b *testing.B) {
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				res, err := stm.RunDetector(context.Background(), stm.WithDetectorConfig(stm.DetectorConfig{
					N: 4, K: 2, T: 2,
					TimelinessBound: bound,
					Seed:            int64(i),
					MaxSteps:        8_000_000,
				}))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stable {
					b.Fatalf("no convergence at bound %d", bound)
				}
				totalSteps += res.Steps
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/run")
		})
	}
}

// BenchmarkTimelinessAnalyzer measures Definition 1 analysis throughput on
// long schedules.
func BenchmarkTimelinessAnalyzer(b *testing.B) {
	src, err := sched.Random(8, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := sched.Take(src, 100_000)
	p := procset.MakeSet(1, 2)
	q := procset.MakeSet(3, 4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.MinBound(s, p, q)
	}
	b.SetBytes(int64(len(s)))
}

// BenchmarkBestPairSearch measures the exhaustive (P,Q) search used by the
// schedule conformance checker.
func BenchmarkBestPairSearch(b *testing.B) {
	src, err := sched.Random(6, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := sched.Take(src, 2_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.BestPair(s, 6, 2, 3)
	}
}
