package obs

import (
	"math/bits"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// HeldClasses answers sched.InSystem(s, n, i, j, bound) for every class
// 1 ≤ i ≤ j ≤ n at once: entry i of the result is J(i), the largest j with
// S^i_{j,n} held, so S^i_{j,n} holds exactly for i ≤ j ≤ J(i). Entries 0
// and above n are 0, and so is every entry when bound < 1. Like InSystem
// it enumerates subsets of Πn, so n must stay small (relations extraction
// runs 2 ≤ n ≤ 6). It allocates nothing and rests on three facts:
//
//   - With bound ≥ 1, S^i_{i,n} always holds: every set is timely with
//     respect to itself (Observation 5), as P-free windows hold no P-steps.
//     With bound < 1 nothing holds, exactly as in sched.IsTimely.
//   - J is nondecreasing (Observation 3): enlarging P or shrinking Q keeps
//     timeliness, so S^i_{j,n} implies S^i_{j−1,n} and S^{i+1}_{j,n}. One
//     walk along the staircase therefore asks at most 2n−1 class queries
//     instead of n(n+1)/2: after a query that holds it moves to the next
//     j, after one that fails to the next i, keeping j.
//   - A query (i, j), i < j, need only try Q ⊇ P. Given any witness (P, Q),
//     swap each member of Q∖P for a member of P missing from Q: the new Q'
//     has size j and Q'∖P ⊆ Q∖P. A P-free window holds no P-step and so
//     no more Q'-steps than Q-steps, and P stays timely. That cuts a
//     query's candidates from C(n,i)·C(n,j) to C(n,i)·C(n−i,j−i), each
//     checked by sched.IsTimely with its early exit.
func HeldClasses(s sched.Schedule, n, bound int) [procset.MaxProcs + 1]int {
	var held [procset.MaxProcs + 1]int
	if bound < 1 {
		return held
	}
	j := 1
	for i := 1; i <= n; i++ {
		j = max(j, i)
		for j < n && heldWithin(s, n, i, j+1, bound) {
			j++
		}
		held[i] = j
	}
	return held
}

// heldWithin reports whether some i-set P is timely with respect to some
// j-set Q ⊇ P in s with the given bound, for 1 ≤ i < j ≤ n. Q is P plus a
// (j−i)-subset of Πn∖P, drawn as a (j−i)-subset v of the positions of
// Πn∖P's members in the canonical order and mapped onto those members.
func heldWithin(s sched.Schedule, n, i, j, bound int) bool {
	var member [procset.MaxProcs]procset.Set // member[x]: Πn∖P's x-th member
	for p, ok := procset.Set(1)<<i-1, true; ok; p, ok = procset.NextKSubset(p, n) {
		rest := 0
		for r := procset.FullSet(n) &^ p; r != 0; r &= r - 1 {
			member[rest] = r & -r
			rest++
		}
		for v, ok := procset.Set(1)<<(j-i)-1, true; ok; v, ok = procset.NextKSubset(v, rest) {
			q := p
			for x := uint64(v); x != 0; x &= x - 1 {
				q |= member[bits.TrailingZeros64(x)]
			}
			if sched.IsTimely(s, p, q, bound) {
				return true
			}
		}
	}
	return false
}
