package obs_test

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// checkHeld requires obs.HeldClasses to equal sched.InSystem on every class
// i ≤ j of the family over Πn, with entries outside 1..n zero and none
// above n.
func checkHeld(t *testing.T, s sched.Schedule, n, bound int) {
	t.Helper()
	held := obs.HeldClasses(s, n, bound)
	for i := 1; i <= n; i++ {
		for j := i; j <= n; j++ {
			if got, want := j <= held[i], sched.InSystem(s, n, i, j, bound); got != want {
				t.Fatalf("after %d steps: HeldClasses(bound %d) has J(%d) = %d, but sched.InSystem(%d,%d) = %v", len(s), bound, i, held[i], i, j, want)
			}
		}
	}
	if held[0] != 0 || slices.ContainsFunc(held[1:], func(j int) bool { return j > n }) || slices.ContainsFunc(held[n+1:], func(j int) bool { return j != 0 }) {
		t.Fatalf("after %d steps: HeldClasses(bound %d) = %v, want entries outside 1..%d zero and none above it", len(s), bound, held[:n+2], n)
	}
}

// withStrays inserts, after every fifth step of s, a step by an id outside
// Πn: 0, n+1, procset.MaxProcs+1 or a negative one, in turn. Definition 1
// ignores them, and so must every form of the extractor.
func withStrays(s sched.Schedule, n int) sched.Schedule {
	strays := []procset.ID{0, procset.ID(n + 1), procset.MaxProcs + 1, -1, -procset.MaxProcs - 2}
	var out sched.Schedule
	for k, id := range s {
		out = append(out, id)
		if k%5 == 4 {
			out = append(out, strays[k/5%len(strays)])
		}
	}
	return out
}

// TestHeldClassesMatchesInSystem holds the lane pass to the literal
// per-pair reference on every class, at n = 2..6, on random, starver and
// stray-laden schedules and their prefixes of length 0, 1 and 10. The
// bounds run from below 1, through the ones whose counts fit in the low
// planes and the ones that need more, to bounds no schedule reaches
// (1<<40, math.MaxInt), which the pass decides as len(s)+1.
func TestHeldClassesMatchesInSystem(t *testing.T) {
	bounds := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1 << 40, math.MaxInt}
	for n := 2; n <= 6; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mixed := mixedSchedule(t, n, int64(n), 600)
			// One round of phases of about 64 steps, each starving one
			// process: the windows of the starved singletons hold 64 to 66
			// Πn-steps, so J(1) moves between bounds 64 and 67.
			growth := (64 + n - 2) / (n - 1)
			starver, err := sched.RotatingStarver(n, 1, growth)
			if err != nil {
				t.Fatal(err)
			}
			starved := sched.Take(starver, n*growth*(n-1))
			for _, s := range []sched.Schedule{mixed, starved, withStrays(mixed, n), withStrays(starved, n)} {
				for _, size := range []int{0, 1, 10, len(s)} {
					for _, bound := range bounds {
						checkHeld(t, s[:size], n, bound)
					}
				}
			}
		})
	}
}

// TestHeldClassesSecondWord decides class (2,4) at n = 6, whose 90
// candidates fill one 64-lane word and 26 lanes of a second, on a schedule
// where only candidates of the second word are witnesses: 5 and 6 take
// turns with 1..4, each of which steps twice in a row between them, 5
// sitting out the first half of each round and 6 the second. With bound 2
// only P = {5,6}, in lanes 84..89, is timely with respect to a 4-set. The
// lanes are numbered as HeldClasses fills them: P in the canonical order
// of 2-sets, then Q∖P in the canonical order of 2-sets of the positions of
// Πn∖P's members.
func TestHeldClassesSecondWord(t *testing.T) {
	const n, i, j, bound = 6, 2, 4, 2
	var s sched.Schedule
	for range 4 {
		for _, turn := range []procset.ID{6, 5} {
			for x := procset.ID(1); x <= 4; x++ {
				s = append(s, turn, x, turn, x)
			}
		}
	}
	lane, first := 0, -1
	for _, p := range procset.KSubsets(n, i) {
		rest := (procset.FullSet(n) &^ p).Members()
		for _, v := range procset.KSubsets(len(rest), j-i) {
			q := p
			for x := uint64(v); x != 0; x &= x - 1 {
				q = q.Add(rest[bits.TrailingZeros64(x)])
			}
			if sched.IsTimely(s, p, q, bound) && first < 0 {
				first = lane
			}
			lane++
		}
	}
	if lane != 90 || first < 64 {
		t.Fatalf("class (%d,%d) at n = %d: %d candidates, first witness in lane %d; want 90 and a witness in lanes 64..89 only", i, j, n, lane, first)
	}
	if held := obs.HeldClasses(s, n, bound); held[i] < j {
		t.Fatalf("HeldClasses(bound %d) has J(%d) = %d, but lane %d's pair witnesses S^%d_{%d,%d}", bound, i, held[i], first, i, j, n)
	}
	checkHeld(t, s, n, bound)
}
