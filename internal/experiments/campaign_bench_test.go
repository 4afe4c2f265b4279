package experiments

import (
	"context"
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/core"
)

// BenchmarkMatrixCampaignWorkers is the campaign speedup benchmark: the full
// empirical Theorem 27 matrix for (2,2,4)-agreement at 1 and 8 workers. On a
// multi-core machine the 8-worker run should be ≥3× faster; the serialized
// results are identical by construction (see the determinism tests).
//
//	go test ./internal/experiments -bench MatrixCampaignWorkers -benchtime 3x
func BenchmarkMatrixCampaignWorkers(b *testing.B) {
	p := core.Problem{T: 2, K: 2, N: 4}
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells, _, err := MatrixSweep(context.Background(), []core.Problem{p}, 1, 2_000_000, 150_000, workers, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range cells {
					if !c.Match {
						b.Fatalf("cell (%d,%d) mismatched: %s", c.I, c.J, c.Empirical)
					}
				}
			}
		})
	}
}

// BenchmarkConvergenceSweepWorkers shards 32 detector-convergence trials.
func BenchmarkConvergenceSweepWorkers(b *testing.B) {
	cfg := ConvergenceConfig{N: 4, K: 2, T: 2, Trials: 32}
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := cfg
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				rep, err := RunConvergenceSweep(context.Background(), cfg, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Summary.Verdicts["stable"] != cfg.Trials {
					b.Fatalf("verdicts = %v", rep.Summary.Verdicts)
				}
			}
		})
	}
}
