package sched_test

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// BenchmarkInSystemSweep is the batch extractor's cost in the relations
// campaign's shape: for each 2,000-step schedule of a random or a
// rotating-starver population, every class S^i_{j,n}, i ≤ j, with bound 4.
// The KIND/n=N sub-benchmarks call the reference sched.InSystem once per
// class; table/KIND/n=N decides the same table with obs.HeldClasses, the
// form the campaign runs. One op is one schedule's table; ns/step divides
// it by the schedule's length.
func BenchmarkInSystemSweep(b *testing.B) {
	const steps, bound, population = 2000, 4, 4
	for _, n := range []int{4, 5, 6} {
		kinds := []struct {
			name string
			src  func(k int) (sched.Source, error)
		}{
			{"random", func(k int) (sched.Source, error) { return sched.Random(n, int64(2*k), nil) }},
			{"starver", func(k int) (sched.Source, error) { return sched.RotatingStarver(n, 1+(2*k+1)%(n-1), 1) }},
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
		for _, kind := range kinds {
			pop := make([]sched.Schedule, population)
			for k := range pop {
				src, err := kind.src(k)
				if err != nil {
					b.Fatal(err)
				}
				pop[k] = sched.Take(src, steps)
			}
			for _, form := range forms {
				b.Run(fmt.Sprintf("%s%s/n=%d", form.name, kind.name, n), func(b *testing.B) {
					b.ReportAllocs()
					held := 0
					for it := 0; it < b.N; it++ {
						held += form.sweep(pop[it%population])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
					if b.N >= population && held == 0 {
						b.Fatal("no schedule of the population is in any class")
					}
				})
			}
		}
	}
}
