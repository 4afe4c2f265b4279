package sched

import (
	"math"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// Definition 1 of the paper: P is timely with respect to Q in S if there is
// an integer b such that every sequence of consecutive steps of S that
// contains b occurrences of processes in Q contains a step of a process in P.
//
// On a finite schedule the relation is witnessed by the maximal number of
// Q-steps in any P-free window: P is timely with bound b iff that maximum is
// strictly less than b. Steps of processes in P ∩ Q count as P-steps for
// windowing purposes (a window containing them contains a process in P) and
// therefore terminate P-free windows.

// MaxQGap returns the maximal number of Q-steps occurring in any window of s
// that contains no P-step. The window after the last P-step (or the whole
// schedule, if P never steps) counts; on prefixes of infinite schedules this
// makes the result a lower bound for every extension.
func MaxQGap(s Schedule, p, q procset.Set) int {
	maxGap, gap := 0, 0
	for _, step := range s {
		switch {
		case p.Contains(step):
			if gap > maxGap {
				maxGap = gap
			}
			gap = 0
		case q.Contains(step):
			gap++
		}
	}
	if gap > maxGap {
		maxGap = gap
	}
	return maxGap
}

// IsTimely reports whether P is timely with respect to Q in s with the given
// bound: every window containing bound occurrences of Q-steps contains a
// P-step. bound must be at least 1. It is MaxQGap(s, p, q) < bound, but the
// scan stops at the first P-free window that reaches bound Q-steps.
func IsTimely(s Schedule, p, q procset.Set, bound int) bool {
	if bound < 1 {
		return false
	}
	gap := 0
	for _, step := range s {
		switch {
		case p.Contains(step):
			gap = 0
		case q.Contains(step):
			gap++
			if gap == bound {
				return false
			}
		}
	}
	return true
}

// MinBound returns the smallest bound with which P is timely with respect to
// Q in s, i.e. MaxQGap + 1. On a prefix of an infinite schedule this is a
// lower bound on any valid Definition 1 constant.
func MinBound(s Schedule, p, q procset.Set) int {
	return MaxQGap(s, p, q) + 1
}

// TimelyPair is a witness that P is timely with respect to Q with the given
// minimal bound on the analyzed schedule.
type TimelyPair struct {
	P        procset.Set
	Q        procset.Set
	MinBound int
}

// BestPair searches all pairs (P, Q) with |P| = i and |Q| = j over Πn for the
// pair with the smallest MinBound on s, breaking ties by the canonical set
// order on P then Q. This measures "how much S^i_{j,n}-synchrony" a finite
// schedule exhibits. It panics if i or j is out of [1, n], mirroring the
// model's constraints.
func BestPair(s Schedule, n, i, j int) TimelyPair {
	if i < 1 || j < 1 || i > n || j > n {
		panic("sched: BestPair requires 1 <= i, j <= n")
	}
	best := TimelyPair{MinBound: math.MaxInt}
	qs := procset.KSubsets(n, j)
	for _, p := range procset.KSubsets(n, i) {
		for _, q := range qs {
			b := MinBound(s, p, q)
			if b < best.MinBound {
				best = TimelyPair{P: p, Q: q, MinBound: b}
			}
		}
	}
	return best
}

// InSystem reports whether the finite schedule s, extended in any way that
// keeps the witnessed bound, belongs to S^i_{j,n}: some set of size i is
// timely with respect to some set of size j with the given bound. This is
// the conformance check used to validate schedule generators.
func InSystem(s Schedule, n, i, j, bound int) bool {
	if i > j {
		// The paper defines S^i_{j,n} for i <= j (Observation 3 makes larger
		// P easier, so i > j systems are not part of the family).
		return false
	}
	qs := procset.KSubsets(n, j)
	for _, p := range procset.KSubsets(n, i) {
		for _, q := range qs {
			if IsTimely(s, p, q, bound) {
				return true
			}
		}
	}
	return false
}

// GapProfile returns, for every P-free maximal window of s, the number of
// Q-steps it contains, in schedule order, including the trailing partial
// window. It is the raw data behind Figure 1 style analyses.
func GapProfile(s Schedule, p, q procset.Set) []int {
	var (
		profile []int
		gap     int
	)
	for _, step := range s {
		switch {
		case p.Contains(step):
			profile = append(profile, gap)
			gap = 0
		case q.Contains(step):
			gap++
		}
	}
	return append(profile, gap)
}
