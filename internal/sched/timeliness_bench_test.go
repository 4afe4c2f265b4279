package sched_test

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// BenchmarkInSystemSweep is the batch extractor's cost in the relations
// campaign's shape: for each 2,000-step schedule of a mixed random/starver
// population, every class S^i_{j,n}, i ≤ j, with bound 4. The n=N
// sub-benchmarks call the reference sched.InSystem once per class;
// table/n=N decides the same table with obs.HeldClasses, the form the
// campaign runs. One op is one schedule's table.
func BenchmarkInSystemSweep(b *testing.B) {
	const steps, bound, population = 2000, 4, 8
	for _, n := range []int{4, 5, 6} {
		pop := make([]sched.Schedule, population)
		for k := range pop {
			var (
				src sched.Source
				err error
			)
			if k%2 == 0 {
				src, err = sched.Random(n, int64(k), nil)
			} else {
				src, err = sched.RotatingStarver(n, 1+k%(n-1), 1)
			}
			if err != nil {
				b.Fatal(err)
			}
			pop[k] = sched.Take(src, steps)
		}
		forms := []struct {
			name  string
			sweep func(sched.Schedule) int
		}{
			{"", func(s sched.Schedule) (held int) {
				for i := 1; i <= n; i++ {
					for j := i; j <= n; j++ {
						if sched.InSystem(s, n, i, j, bound) {
							held++
						}
					}
				}
				return held
			}},
			{"table/", func(s sched.Schedule) (held int) {
				classes := obs.HeldClasses(s, n, bound)
				for i := 1; i <= n; i++ {
					held += max(0, classes[i]-i+1)
				}
				return held
			}},
		}
		for _, form := range forms {
			b.Run(fmt.Sprintf("%sn=%d", form.name, n), func(b *testing.B) {
				b.ReportAllocs()
				held := 0
				for it := 0; it < b.N; it++ {
					held += form.sweep(pop[it%population])
				}
				if b.N >= population && held == 0 {
					b.Fatal("no schedule of the population is in any class")
				}
			})
		}
	}
}
