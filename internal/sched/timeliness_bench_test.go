package sched

import (
	"fmt"
	"testing"
)

// BenchmarkInSystemSweep is the batch extractor's cost in the relations
// campaign's shape: for each 2,000-step schedule of a mixed random/starver
// population, InSystem with bound 4 over every class S^i_{j,n}, i ≤ j. One
// op is one schedule's sweep.
func BenchmarkInSystemSweep(b *testing.B) {
	const steps, bound, population = 2000, 4, 8
	for _, n := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pop := make([]Schedule, population)
			for k := range pop {
				var (
					src Source
					err error
				)
				if k%2 == 0 {
					src, err = Random(n, int64(k), nil)
				} else {
					src, err = RotatingStarver(n, 1+k%(n-1), 1)
				}
				if err != nil {
					b.Fatal(err)
				}
				pop[k] = Take(src, steps)
			}
			b.ReportAllocs()
			b.ResetTimer()
			held := 0
			for it := 0; it < b.N; it++ {
				s := pop[it%population]
				for i := 1; i <= n; i++ {
					for j := i; j <= n; j++ {
						if InSystem(s, n, i, j, bound) {
							held++
						}
					}
				}
			}
			if b.N >= population && held == 0 {
				b.Fatal("no schedule of the population is in any class")
			}
		})
	}
}
