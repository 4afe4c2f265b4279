package procset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeSetAndMembership(t *testing.T) {
	t.Parallel()
	s := MakeSet(1, 3, 5)
	if got := s.Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
	for _, id := range []ID{1, 3, 5} {
		if !s.Contains(id) {
			t.Errorf("Contains(%v) = false, want true", id)
		}
	}
	for _, id := range []ID{2, 4, 6, 64} {
		if s.Contains(id) {
			t.Errorf("Contains(%v) = true, want false", id)
		}
	}
	if s.Contains(0) || s.Contains(-1) || s.Contains(65) {
		t.Error("Contains accepted out-of-range id")
	}
}

func TestFullSet(t *testing.T) {
	t.Parallel()
	tests := []struct {
		n    int
		size int
	}{
		{0, 0}, {1, 1}, {5, 5}, {63, 63}, {64, 64},
	}
	for _, tc := range tests {
		s := FullSet(tc.n)
		if s.Size() != tc.size {
			t.Errorf("FullSet(%d).Size() = %d, want %d", tc.n, s.Size(), tc.size)
		}
		for i := 1; i <= tc.n; i++ {
			if !s.Contains(ID(i)) {
				t.Errorf("FullSet(%d) missing %d", tc.n, i)
			}
		}
		if tc.n < 64 && s.Contains(ID(tc.n+1)) {
			t.Errorf("FullSet(%d) contains %d", tc.n, tc.n+1)
		}
	}
}

func TestFullSetPanicsOutOfRange(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("FullSet(65) did not panic")
		}
	}()
	FullSet(65)
}

func TestSetAlgebra(t *testing.T) {
	t.Parallel()
	a := MakeSet(1, 2, 3)
	b := MakeSet(3, 4)
	if got := a.Union(b); got != MakeSet(1, 2, 3, 4) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != MakeSet(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != MakeSet(1, 2) {
		t.Errorf("Minus = %v", got)
	}
	if !MakeSet(1, 2).SubsetOf(a) {
		t.Error("SubsetOf = false, want true")
	}
	if b.SubsetOf(a) {
		t.Error("SubsetOf = true, want false")
	}
	if got := a.Complement(5); got != MakeSet(4, 5) {
		t.Errorf("Complement = %v", got)
	}
}

func TestAddRemove(t *testing.T) {
	t.Parallel()
	s := EmptySet.Add(7).Add(7).Add(2)
	if s != MakeSet(2, 7) {
		t.Fatalf("after adds: %v", s)
	}
	s = s.Remove(7).Remove(7)
	if s != MakeSet(2) {
		t.Fatalf("after removes: %v", s)
	}
}

func TestMembersSortedAndNth(t *testing.T) {
	t.Parallel()
	s := MakeSet(9, 1, 4)
	want := []ID{1, 4, 9}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Members()[%d] = %v, want %v", i, got[i], want[i])
		}
		if s.Nth(i) != want[i] {
			t.Errorf("Nth(%d) = %v, want %v", i, s.Nth(i), want[i])
		}
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if EmptySet.Min() != 0 || EmptySet.Max() != 0 {
		t.Error("empty Min/Max not zero")
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	t.Parallel()
	tests := []Set{EmptySet, MakeSet(1), MakeSet(2, 5, 64), FullSet(8)}
	for _, s := range tests {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	if _, err := Parse("{p0}"); err == nil {
		t.Error("Parse accepted p0")
	}
	if _, err := Parse("{px}"); err == nil {
		t.Error("Parse accepted px")
	}
	if got, err := Parse("1, 3"); err != nil || got != MakeSet(1, 3) {
		t.Errorf("Parse bare ids = %v, %v", got, err)
	}
}

func TestBinomial(t *testing.T) {
	t.Parallel()
	tests := []struct{ n, k, want int }{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {5, 3, 10},
		{10, 4, 210}, {12, 6, 924}, {5, 6, 0}, {5, -1, 0},
		{64, 1, 64}, {20, 10, 184756},
	}
	for _, tc := range tests {
		if got := Binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	t.Parallel()
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestKSubsetsCountAndOrder(t *testing.T) {
	t.Parallel()
	for n := 1; n <= 10; n++ {
		for k := 0; k <= n; k++ {
			subs := KSubsets(n, k)
			if len(subs) != Binomial(n, k) {
				t.Fatalf("KSubsets(%d,%d) has %d elements, want %d", n, k, len(subs), Binomial(n, k))
			}
			for i, s := range subs {
				if s.Size() != k {
					t.Fatalf("KSubsets(%d,%d)[%d] = %v has size %d", n, k, i, s, s.Size())
				}
				if !s.SubsetOf(FullSet(n)) {
					t.Fatalf("KSubsets(%d,%d)[%d] = %v not within Πn", n, k, i, s)
				}
				if i > 0 && !subs[i-1].Less(s) {
					t.Fatalf("KSubsets(%d,%d) not strictly increasing at %d", n, k, i)
				}
			}
		}
	}
}

func TestKSubsetsEdge(t *testing.T) {
	t.Parallel()
	if got := KSubsets(5, 6); got != nil {
		t.Errorf("KSubsets(5,6) = %v, want nil", got)
	}
	if got := KSubsets(5, -1); got != nil {
		t.Errorf("KSubsets(5,-1) = %v, want nil", got)
	}
	got := KSubsets(3, 0)
	if len(got) != 1 || got[0] != EmptySet {
		t.Errorf("KSubsets(3,0) = %v", got)
	}
	got = KSubsets(64, 1)
	if len(got) != 64 {
		t.Errorf("KSubsets(64,1) returned %d sets", len(got))
	}
}

// KSubsets and NextKSubset both step with Gosper's hack; the reference is
// UnrankKSubset's combinadic walk, which shares no code with it. The cases
// at n = 64 end on p64, where the step overflows 64 bits.
func TestNextKSubsetMatchesEnumeration(t *testing.T) {
	t.Parallel()
	for _, c := range [][2]int{{8, 3}, {1, 1}, {64, 1}, {64, 2}, {64, 62}, {64, 63}, {64, 64}} {
		n, k := c[0], c[1]
		subs := KSubsets(n, k)
		if len(subs) != Binomial(n, k) {
			t.Fatalf("KSubsets(%d,%d) has %d sets, want %d", n, k, len(subs), Binomial(n, k))
		}
		for rank, s := range subs {
			want, err := UnrankKSubset(rank, k, n)
			if err != nil || s != want {
				t.Fatalf("KSubsets(%d,%d)[%d] = %v, want %v (%v)", n, k, rank, s, want, err)
			}
			next, ok := NextKSubset(s, n)
			if last := rank == len(subs)-1; ok == last || !last && next != subs[rank+1] {
				t.Fatalf("NextKSubset(%v, %d) = %v, %v after rank %d of %d", s, n, next, ok, rank, len(subs))
			}
		}
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	t.Parallel()
	for n := 1; n <= 12; n++ {
		for k := 1; k <= n; k++ {
			for rank, s := range KSubsets(n, k) {
				if got := RankKSubset(s); got != rank {
					t.Fatalf("RankKSubset(%v) = %d, want %d", s, got, rank)
				}
				back, err := UnrankKSubset(rank, k, n)
				if err != nil {
					t.Fatalf("UnrankKSubset(%d,%d,%d): %v", rank, k, n, err)
				}
				if back != s {
					t.Fatalf("UnrankKSubset(%d,%d,%d) = %v, want %v", rank, k, n, back, s)
				}
			}
		}
	}
}

func TestUnrankErrors(t *testing.T) {
	t.Parallel()
	if _, err := UnrankKSubset(-1, 2, 5); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := UnrankKSubset(Binomial(5, 2), 2, 5); err == nil {
		t.Error("rank == C(n,k) accepted")
	}
}

func TestQuickRankUnrank(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		k := 1 + rng.Intn(n)
		rank := rng.Intn(Binomial(n, k))
		s, err := UnrankKSubset(rank, k, n)
		if err != nil {
			return false
		}
		return RankKSubset(s) == rank && s.Size() == k && s.SubsetOf(FullSet(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	t.Parallel()
	f := func(a, b, c uint64) bool {
		x, y, z := Set(a), Set(b), Set(c)
		if x.Union(y) != y.Union(x) {
			return false
		}
		if x.Intersect(y.Union(z)) != x.Intersect(y).Union(x.Intersect(z)) {
			return false
		}
		if x.Minus(y).Intersect(y) != EmptySet {
			return false
		}
		if !x.Minus(y).SubsetOf(x) {
			return false
		}
		return x.Union(y).Size() == x.Size()+y.Size()-x.Intersect(y).Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkKSubsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := KSubsets(16, 8); len(got) != 12870 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkRankKSubset(b *testing.B) {
	s := MakeSet(3, 7, 11, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankKSubset(s)
	}
}
