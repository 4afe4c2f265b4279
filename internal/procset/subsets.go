package procset

import "fmt"

// Binomial returns C(n, k), the number of k-subsets of an n-set.
// It returns 0 when k < 0 or k > n. Results are exact for the n ≤ 64
// range supported by this package.
func Binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// KSubsets enumerates Πkn: all subsets of {1..n} of size k, in the canonical
// total order (ascending bitmask, i.e. colexicographic). The slice is freshly
// allocated on each call.
func KSubsets(n, k int) []Set {
	if k < 0 || k > n {
		return nil
	}
	out := make([]Set, 0, Binomial(n, k))
	if k == 0 {
		return append(out, EmptySet)
	}
	for s, ok := FullSet(k), true; ok; s, ok = NextKSubset(s, n) {
		out = append(out, s)
	}
	return out
}

// NextKSubset returns the successor of s in the canonical order on k-subsets
// of {1..n}, and false when s is the last one. It panics if s is empty.
func NextKSubset(s Set, n int) (Set, bool) {
	if s == 0 {
		panic("procset: NextKSubset of empty set")
	}
	// Gosper's hack: the next larger bitmask with as many bits set.
	v := uint64(s)
	c := v & -v
	r := v + c
	if r == 0 { // the lowest run of ones reaches p64: s is the last
		return 0, false
	}
	next := (((r ^ v) >> 2) / c) | r
	if next > uint64(FullSet(n)) {
		return 0, false
	}
	return Set(next), true
}

// RankKSubset returns the position (from 0) of s in the canonical enumeration
// of k-subsets of {1..n}, where k = s.Size(). This is the combinadic rank in
// colexicographic order: rank = Σ C(c_i, i+1) over members c_i (0-based
// element values) sorted ascending.
func RankKSubset(s Set) int {
	rank := 0
	for i, id := range s.Members() {
		rank += Binomial(int(id)-1, i+1)
	}
	return rank
}

// UnrankKSubset returns the k-subset of {1..n} with the given rank in the
// canonical enumeration. It is the inverse of RankKSubset.
func UnrankKSubset(rank, k, n int) (Set, error) {
	if rank < 0 || rank >= Binomial(n, k) {
		return 0, fmt.Errorf("procset: rank %d out of range for C(%d,%d)=%d", rank, n, k, Binomial(n, k))
	}
	var s Set
	for i := k; i >= 1; i-- {
		// Largest c with C(c, i) <= rank.
		c := i - 1
		for Binomial(c+1, i) <= rank {
			c++
		}
		rank -= Binomial(c, i)
		s = s.Add(ID(c + 1))
	}
	return s, nil
}
