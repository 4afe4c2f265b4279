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
//     With bound < 1 nothing holds, exactly as in sched.InSystem.
//   - J is nondecreasing (Observation 3): enlarging P or shrinking Q keeps
//     timeliness, so S^i_{j,n} implies S^i_{j−1,n} and S^{i+1}_{j,n}. One
//     walk along the staircase therefore asks at most 2n−1 class queries
//     instead of n(n+1)/2: after a query that holds it moves to the next
//     j, after one that fails to the next i, keeping j.
//   - A query (i, j), i < j, need only try Q ⊇ P. Given any witness (P, Q),
//     swap each member of Q∖P for a member of P missing from Q: the new Q'
//     has size j and Q'∖P ⊆ Q∖P. A P-free window holds no P-step and so
//     no more Q'-steps than Q-steps, and P stays timely. That cuts a
//     query's candidates from C(n,i)·C(n,j) to C(n,i)·C(n−i,j−i), and one
//     pass over s decides 64 of them at once, each in its own bit lane.
func HeldClasses(s sched.Schedule, n, bound int) [procset.MaxProcs + 1]int {
	var held [procset.MaxProcs + 1]int
	if bound < 1 {
		return held
	}
	w := lanes{n: n}
	for x := range w.keep {
		w.keep[x] = ^uint64(0)
	}
	j := 1
	for i := 1; i <= n; i++ {
		j = max(j, i)
		for j < n && w.heldWithin(s, i, j+1, bound) {
			j++
		}
		held[i] = j
	}
	return held
}

// heldWithin reports whether some i-set P is timely with respect to some
// j-set Q ⊇ P in s with the given bound ≥ 1, for 1 ≤ i < j ≤ n. Q is P plus
// a (j−i)-subset of Πn∖P, drawn as a (j−i)-subset v of the positions of
// Πn∖P's members in the canonical order and mapped onto those members.
// The candidates fill the lanes of a word in that order; each full word,
// and the last partial one, is decided by one pass over s, so a query
// with more than 64 candidates (90 for (2,4) at n = 6) passes once per
// word until one holds.
func (w *lanes) heldWithin(s sched.Schedule, i, j, bound int) bool {
	n := w.n
	var rest [procset.MaxProcs]uint8 // rest[k]: the index of Πn∖P's k-th member
	w.clear()
	for p, ok := procset.Set(1)<<i-1, true; ok; p, ok = procset.NextKSubset(p, n) {
		size := 0
		for r := uint64(procset.FullSet(n) &^ p); r != 0; r &= r - 1 {
			rest[size] = uint8(bits.TrailingZeros64(r))
			size++
		}
		for v, ok := procset.Set(1)<<(j-i)-1, true; ok; v, ok = procset.NextKSubset(v, size) {
			lane := w.live + 1 // lanes fill from bit 0 up
			w.live |= lane
			for x := uint64(p); x != 0; x &= x - 1 {
				w.keep[bits.TrailingZeros64(x)] &^= lane
			}
			for x := uint64(v); x != 0; x &= x - 1 {
				w.inc[rest[bits.TrailingZeros64(x)]] |= lane
			}
			if w.live == ^uint64(0) {
				if w.survives(s, bound) {
					return true
				}
				w.clear()
			}
		}
	}
	return w.live != 0 && w.survives(s, bound)
}

// lowPlanes is how many low planes of the lane counts survives keeps in
// local variables; bounds up to 2^lowPlanes need no others.
const lowPlanes = 2

// lanes is one word of a query's candidates (P, Q), one per bit lane, and
// the state of the pass that decides them. Lane l's count is the number of
// Q∖P-steps since P's last step. A step by process x+1 restarts the count
// in the lanes keep[x] lacks (x+1 ∈ P) and adds one in the lanes of inc[x]
// (x+1 ∈ Q∖P); other lanes, and every lane at a step of a process outside
// Πn, stay as they are.
//
// The counts are bit-sliced: plane b holds bit b of every lane's count. A
// count starts, and restarts, at 2^planes − bound, with 2^planes ≥ bound,
// so it carries out of the top plane exactly at its bound-th step since
// the restart; the lane's P is then not timely with respect to its Q, and
// the lane leaves live for good. Each plane is stored XORed with its
// plane of the start value, so that a restart clears the lane's bits.
// Planes 0 and 1 are locals of survives. The planes above them, in hi,
// change only when a lane carries out of plane 1, at most once in four of
// its steps, so the restarts in between are collected and applied then.
type lanes struct {
	keep, inc [procset.MaxProcs]uint64
	live      uint64 // lanes in use and not yet dead
	n         int    // Πn's size: keep is all ones and inc empty past it

	planes int
	flip   [procset.MaxProcs]uint64 // flip[b]: plane b of ^start in every lane
	hi     [procset.MaxProcs]uint64 // hi[b]: plane b, for b ≥ lowPlanes
}

// clear empties the word: no lane in use, no mask set. Masks past n are
// never set, so it leaves them as they are.
func (w *lanes) clear() {
	for x := range w.n {
		w.keep[x], w.inc[x] = ^uint64(0), 0
	}
	w.live = 0
}

// survives reports whether some live lane's count stays below bound
// through the whole of s, that is, whether some candidate's P is timely
// with respect to its Q in s with the given bound ≥ 1. It stops as soon
// as every live lane is dead. No count exceeds len(s), so a bound above
// len(s) is decided as len(s)+1, which keeps planes ≤ bits.Len(len(s)).
func (w *lanes) survives(s sched.Schedule, bound int) bool {
	bound = min(bound, len(s)+1)
	w.planes = max(bits.Len(uint(bound-1)), lowPlanes)
	start := uint64(1)<<w.planes - uint64(bound)
	for b := range w.planes {
		w.flip[b] = -(^start >> b & 1)
	}
	clear(w.hi[lowPlanes:w.planes])
	var d0, d1 uint64
	fresh := ^uint64(0) // lanes not restarted since hi took its last carry
	for k := 0; k < len(s); k++ {
		x := uint(s[k]) - 1
		if x >= procset.MaxProcs {
			continue
		}
		keep, m := w.keep[x], w.inc[x]
		fresh &= keep
		// Adding m flips plane b in m's lanes; those whose count bit went
		// from 1 to 0, where the stored bit now differs from flip, carry.
		d0 = d0&keep ^ m
		m &= d0 ^ w.flip[0]
		d1 = d1&keep ^ m
		m &= d1 ^ w.flip[1]
		if m != 0 {
			if w.carry(m, fresh) {
				return false
			}
			fresh = ^uint64(0)
		}
	}
	return true
}

// carry adds m, the lanes carrying out of the low planes, to the planes
// above them, after restarting there the lanes that fresh lacks. Lanes
// carrying out of the top plane die and leave inc; carry reports whether
// no live lane is left.
func (w *lanes) carry(m, fresh uint64) bool {
	for b := lowPlanes; b < w.planes; b++ {
		w.hi[b] = w.hi[b]&fresh ^ m
		m &= w.hi[b] ^ w.flip[b]
	}
	if m == 0 {
		return false
	}
	w.live &^= m
	for x := range w.inc[:w.n] {
		w.inc[x] &^= m
	}
	return w.live == 0
}
