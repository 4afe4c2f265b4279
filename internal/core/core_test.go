package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSolvable(t *testing.T, p Problem, s SystemID) bool {
	t.Helper()
	ok, err := p.SolvableIn(s)
	if err != nil {
		t.Fatalf("SolvableIn(%v, %v): %v", p, s, err)
	}
	return ok
}

func TestTheorem27KnownCells(t *testing.T) {
	t.Parallel()
	tests := []struct {
		p    Problem
		s    SystemID
		want bool
	}{
		// Theorem 24: S^k_{t+1,n} solves (t,k,n).
		{Problem{T: 2, K: 2, N: 4}, Sij(2, 3, 4), true},
		{Problem{T: 3, K: 1, N: 5}, Sij(1, 4, 5), true},
		// The abstract's separation: S^k_{t+1,n} does not solve (t+1,k,n)...
		{Problem{T: 3, K: 2, N: 5}, Sij(2, 3, 5), false},
		// ...nor (t,k−1,n).
		{Problem{T: 2, K: 1, N: 5}, Sij(2, 3, 5), false},
		// Theorem 26(1): (k,k,n) solvable in S^k_{n,n}.
		{Problem{T: 2, K: 2, N: 5}, Sij(2, 5, 5), true},
		// Theorem 26(2): (k,k,n) not solvable in S^{k+1}_{n,n}.
		{Problem{T: 2, K: 2, N: 5}, Sij(3, 5, 5), false},
		// Asynchronous system: consensus unsolvable (FLP-style), i=j=1.
		{Problem{T: 1, K: 1, N: 3}, Sij(1, 1, 3), false},
		// k ≥ t+1 is solvable anywhere, even asynchronously.
		{Problem{T: 1, K: 2, N: 3}, Sij(1, 1, 3), true},
		{Problem{T: 2, K: 3, N: 4}, Sij(2, 2, 4), true},
		// Boundary: j−i exactly t+1−k.
		{Problem{T: 3, K: 2, N: 6}, Sij(2, 4, 6), true},
		{Problem{T: 3, K: 2, N: 6}, Sij(2, 3, 6), false},
		// i > k fails regardless of j.
		{Problem{T: 3, K: 2, N: 6}, Sij(3, 6, 6), false},
	}
	for _, tc := range tests {
		if got := mustSolvable(t, tc.p, tc.s); got != tc.want {
			t.Errorf("SolvableIn(%v, %v) = %v, want %v", tc.p, tc.s, got, tc.want)
		}
	}
}

func TestSolvabilityMonotoneUnderContainment(t *testing.T) {
	t.Parallel()
	// Observation 6: solvable in S and S' ⊆ S implies solvable in S'.
	// Containment (Observation 4) is i' ≤ i, j ≤ j'. Check the predicate is
	// monotone accordingly, on random parameters.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		p := Problem{T: 1 + rng.Intn(n-1), K: 1 + rng.Intn(n), N: n}
		i := 1 + rng.Intn(n)
		j := i + rng.Intn(n-i+1)
		s := Sij(i, j, n)
		ok, err := p.SolvableIn(s)
		if err != nil {
			return false
		}
		if !ok {
			return true
		}
		// Any contained system (smaller i', larger j') must stay solvable.
		iPrime := 1 + rng.Intn(i)
		jPrime := j + rng.Intn(n-j+1)
		okPrime, err := p.SolvableIn(Sij(iPrime, jPrime, n))
		if err != nil {
			return false
		}
		return okPrime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchingSystemIsTight(t *testing.T) {
	t.Parallel()
	// For every 1 ≤ k ≤ t ≤ n−1: the matching system solves (t,k,n); making
	// the system weaker in either direction (i+1 or j−1... i.e. S^{k+1} or
	// S^k_{t+2}? No — weaker guarantee means larger i or larger j is
	// *stronger* guarantee...) — precisely: S^k_{t+1,n} solves, while
	// S^k_{t+1,n} fails for (t+1,k,n) and (t,k−1,n) (the abstract's
	// separation), and any system with i > k or j−i < t+1−k fails.
	for n := 3; n <= 10; n++ {
		for to := 1; to <= n-1; to++ {
			for k := 1; k <= to; k++ {
				p := Problem{T: to, K: k, N: n}
				match := p.MatchingSystem()
				if match != Sij(k, to+1, n) {
					t.Fatalf("MatchingSystem(%v) = %v", p, match)
				}
				if !mustSolvable(t, p, match) {
					t.Errorf("%v not solvable in its matching system %v", p, match)
				}
			}
		}
	}
}

func TestSeparationAt(t *testing.T) {
	t.Parallel()
	// The abstract's separation: S^k_{t+1,n} solves (t,k,n)-agreement but
	// neither the more resilient (t+1,k,n) nor the stronger (t,k−1,n).
	for n := 4; n <= 9; n++ {
		for to := 2; to <= n-2; to++ {
			for k := 2; k <= to; k++ {
				base := Problem{T: to, K: k, N: n}
				sys := base.MatchingSystem()
				if !mustSolvable(t, base, sys) {
					t.Errorf("%v should solve %v", sys, base)
				}
				for _, stronger := range []Problem{{T: to + 1, K: k, N: n}, {T: to, K: k - 1, N: n}} {
					if mustSolvable(t, stronger, sys) {
						t.Errorf("%v should NOT solve %v", sys, stronger)
					}
				}
			}
		}
	}
}

func TestDetectorKAndAgreementConfig(t *testing.T) {
	t.Parallel()
	tests := []struct {
		p         Problem
		s         SystemID
		wantDK    int // expected kset.Config.DetectorK (0 = default/trivial)
		wantError bool
	}{
		// Matching system: detector k equals problem k -> no override.
		{Problem{T: 2, K: 2, N: 4}, Sij(2, 3, 4), 0, false},
		// j < t+1: padding raises the detector parameter l = i + (t+1−j).
		{Problem{T: 3, K: 3, N: 5}, Sij(1, 3, 5), 2, false},
		// l = i + (t+1−j) = 3 equals k, so no override is recorded.
		{Problem{T: 3, K: 3, N: 5}, Sij(2, 3, 5), 0, false},
		// j ≥ t+1 with i < k: run the detector at l = i < k.
		{Problem{T: 3, K: 3, N: 5}, Sij(1, 4, 5), 1, false},
		// Trivial path.
		{Problem{T: 1, K: 2, N: 4}, Sij(1, 1, 4), 0, false},
		// Unsolvable.
		{Problem{T: 3, K: 2, N: 5}, Sij(2, 3, 5), 0, true},
	}
	for _, tc := range tests {
		cfg, err := tc.p.AgreementConfig(tc.s)
		if tc.wantError {
			if err == nil {
				t.Errorf("AgreementConfig(%v, %v) succeeded, want error", tc.p, tc.s)
			}
			continue
		}
		if err != nil {
			t.Errorf("AgreementConfig(%v, %v): %v", tc.p, tc.s, err)
			continue
		}
		if cfg.DetectorK != tc.wantDK {
			t.Errorf("AgreementConfig(%v, %v).DetectorK = %d, want %d", tc.p, tc.s, cfg.DetectorK, tc.wantDK)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("produced invalid kset config %+v: %v", cfg, err)
		}
	}
}

func TestDetectorKNeverExceedsKWhenSolvable(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		to := 1 + rng.Intn(n-1)
		k := 1 + rng.Intn(to)
		i := 1 + rng.Intn(n)
		j := i + rng.Intn(n-i+1)
		p := Problem{T: to, K: k, N: n}
		s := Sij(i, j, n)
		ok, err := p.SolvableIn(s)
		if err != nil || !ok {
			return err == nil
		}
		dk := p.DetectorK(s)
		return dk >= 1 && dk <= k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemIDBasics(t *testing.T) {
	t.Parallel()
	s := Sij(2, 3, 5)
	if s.String() != "S^2_{3,5}" {
		t.Errorf("String = %q", s.String())
	}
	if !s.Contains(Sij(1, 4, 5)) {
		t.Error("S^2_{3,5} should contain S^1_{4,5} (Observation 4)")
	}
	if s.Contains(Sij(3, 3, 5)) {
		t.Error("S^2_{3,5} should not contain S^3_{3,5}")
	}
	if s.Contains(Sij(2, 3, 6)) {
		t.Error("systems over different n are incomparable")
	}
	if err := Sij(3, 2, 5).Validate(); err == nil {
		t.Error("i > j accepted")
	}
	if err := Sij(0, 2, 5).Validate(); err == nil {
		t.Error("i = 0 accepted")
	}
	if err := Sij(1, 6, 5).Validate(); err == nil {
		t.Error("j > n accepted")
	}
	if Asynchronous(4) != Sij(1, 1, 4) {
		t.Error("Asynchronous canonical form")
	}
}

func TestProblemValidate(t *testing.T) {
	t.Parallel()
	if err := (Problem{T: 1, K: 1, N: 2}).Validate(); err != nil {
		t.Errorf("minimal problem rejected: %v", err)
	}
	bad := []Problem{
		{T: 0, K: 1, N: 3},
		{T: 3, K: 1, N: 3},
		{T: 1, K: 0, N: 3},
		{T: 1, K: 4, N: 3},
		{T: 1, K: 1, N: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("problem %+v accepted", p)
		}
	}
	if (Problem{T: 2, K: 1, N: 4}).String() != "(2,1,4)-agreement" {
		t.Error("Problem.String format")
	}
}

func TestSolvableInCrossNErrors(t *testing.T) {
	t.Parallel()
	p := Problem{T: 1, K: 1, N: 3}
	if _, err := p.SolvableIn(Sij(1, 2, 4)); err == nil {
		t.Error("cross-n comparison accepted")
	}
}
