// Package procset provides process identifiers, sets of processes, and the
// k-subset combinatorics used throughout the set-timeliness model.
//
// The paper works with Πn = {1, ..., n} and with Πkn, the family of all
// subsets of Πn of size k, equipped with an arbitrary total order used to
// break ties (Figure 2, line 4). This package fixes that order to be the
// colexicographic order induced by the combinadic ranking, so every
// algorithm, test, and experiment in the repository breaks ties identically.
//
// Sets are represented as 64-bit masks, which bounds the system size at 64
// processes; the paper's constructions are combinatorial in nature (Figure 2
// enumerates all C(n,k) subsets), so this bound is never the limiting factor.
package procset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxProcs is the largest supported system size.
const MaxProcs = 64

// ID identifies a process. Valid process identifiers are 1..n, matching the
// paper's Πn = {1, ..., n}. The zero value is not a valid process.
type ID int

// String returns the conventional name of the process, e.g. "p3".
func (p ID) String() string { return "p" + strconv.Itoa(int(p)) }

// Set is an immutable set of process identifiers represented as a bitmask.
// The zero value is the empty set and is ready to use.
type Set uint64

// EmptySet is the set with no processes.
const EmptySet Set = 0

// MakeSet builds a set from the given process identifiers.
// Identifiers outside [1, MaxProcs] are rejected with a panic since they
// indicate a programming error, not a runtime condition.
func MakeSet(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// FullSet returns Πn, the set {1, ..., n}.
func FullSet(n int) Set {
	if n < 0 || n > MaxProcs {
		panic(fmt.Sprintf("procset: FullSet(%d) out of range", n))
	}
	if n == 0 {
		return 0
	}
	return Set((^uint64(0)) >> (MaxProcs - n))
}

func checkID(id ID) {
	if id < 1 || id > MaxProcs {
		panic(fmt.Sprintf("procset: process id %d out of range [1,%d]", int(id), MaxProcs))
	}
}

// Add returns the set with id added.
func (s Set) Add(id ID) Set {
	checkID(id)
	return s | 1<<(uint(id)-1)
}

// Remove returns the set with id removed.
func (s Set) Remove(id ID) Set {
	checkID(id)
	return s &^ (1 << (uint(id) - 1))
}

// Contains reports whether id is a member of s.
func (s Set) Contains(id ID) bool {
	if id < 1 || id > MaxProcs {
		return false
	}
	return s&(1<<(uint(id)-1)) != 0
}

// Size returns the number of processes in s.
func (s Set) Size() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s has no members.
func (s Set) IsEmpty() bool { return s == 0 }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Complement returns Πn \ s for a system of n processes.
func (s Set) Complement(n int) Set { return FullSet(n) &^ s }

// Members returns the process identifiers in ascending order.
func (s Set) Members() []ID {
	out := make([]ID, 0, s.Size())
	for m := uint64(s); m != 0; m &= m - 1 {
		out = append(out, ID(bits.TrailingZeros64(m)+1))
	}
	return out
}

// Min returns the smallest member of s, or 0 if s is empty.
func (s Set) Min() ID {
	if s == 0 {
		return 0
	}
	return ID(bits.TrailingZeros64(uint64(s)) + 1)
}

// Max returns the largest member of s, or 0 if s is empty.
func (s Set) Max() ID {
	if s == 0 {
		return 0
	}
	return ID(64 - bits.LeadingZeros64(uint64(s)))
}

// Nth returns the i-th smallest member of s, counting from 0.
// It panics if i is out of range; callers index within s.Size().
func (s Set) Nth(i int) ID {
	if i < 0 || i >= s.Size() {
		panic(fmt.Sprintf("procset: Nth(%d) on set of size %d", i, s.Size()))
	}
	m := uint64(s)
	for ; i > 0; i-- {
		m &= m - 1
	}
	return ID(bits.TrailingZeros64(m) + 1)
}

// String renders the set as "{p1,p4,p5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(id.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Less defines the total order on sets used for tie-breaking in Figure 2
// line 4 (argmin over (accusation[A], A)). It orders first by the bitmask
// value, which for equal-size sets coincides with colexicographic order on
// the sorted member sequences. Any fixed total order satisfies the paper;
// this one is cheap and deterministic.
func (s Set) Less(t Set) bool { return s < t }

// Parse parses a set in the format produced by String, e.g. "{p1,p4}".
// It also accepts bare comma-separated ids: "1,4".
func Parse(text string) (Set, error) {
	text = strings.TrimSpace(text)
	text = strings.TrimPrefix(text, "{")
	text = strings.TrimSuffix(text, "}")
	if text == "" {
		return EmptySet, nil
	}
	var s Set
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "p")
		v, err := strconv.Atoi(part)
		if err != nil {
			return 0, fmt.Errorf("procset: parse %q: %w", part, err)
		}
		if v < 1 || v > MaxProcs {
			return 0, fmt.Errorf("procset: parse %q: id %d out of range [1,%d]", text, v, MaxProcs)
		}
		s = s.Add(ID(v))
	}
	return s, nil
}
