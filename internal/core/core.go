// Package core is the model layer of the reproduction: the family of
// partially synchronous systems S^i_{j,n} (§2.2 of the paper), the
// (t,k,n)-agreement problem descriptor (§3), the solvability
// characterization of Theorem 27, and the dispatcher that maps a problem
// and a system to the concrete algorithm configuration that solves it.
//
//	Theorem 27. For 1 ≤ k ≤ t ≤ n−1 and 1 ≤ i ≤ j ≤ n:
//	(t,k,n)-agreement is solvable in S^i_{j,n}  iff  i ≤ k and j−i ≥ t+1−k.
//
// For k > t the problem is solvable in the asynchronous system Sn and hence
// (Observation 6) in every S^i_{j,n}.
package core

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
)

// SystemID identifies a partially synchronous system S^i_{j,n}: a read/write
// system of n processes in which at least one set of i processes is timely
// with respect to at least one set of j processes.
type SystemID struct {
	I, J, N int
}

// Sij builds the identifier for S^i_{j,n}.
func Sij(i, j, n int) SystemID { return SystemID{I: i, J: j, N: n} }

// Asynchronous returns the identifier of the asynchronous system of n
// processes in its canonical S^1_{1,n} form (Observation 5: S^i_{i,n} = Sn
// for every i).
func Asynchronous(n int) SystemID { return SystemID{I: 1, J: 1, N: n} }

// Validate checks 1 ≤ i ≤ j ≤ n (the family's parameter range).
func (s SystemID) Validate() error {
	if s.N < 1 || s.N > procset.MaxProcs {
		return fmt.Errorf("core: n = %d out of range [1,%d]", s.N, procset.MaxProcs)
	}
	if s.I < 1 || s.I > s.J || s.J > s.N {
		return fmt.Errorf("core: S^%d_{%d,%d} requires 1 ≤ i ≤ j ≤ n", s.I, s.J, s.N)
	}
	return nil
}

// String renders the identifier as "S^i_{j,n}".
func (s SystemID) String() string { return fmt.Sprintf("S^%d_{%d,%d}", s.I, s.J, s.N) }

// Contains reports whether every schedule of other is a schedule of s, by
// the sufficient condition of Observation 4: S^{i'}_{j',n} ⊆ S^i_{j,n}
// whenever i' ≤ i and j ≤ j'. Systems over different n are incomparable.
func (s SystemID) Contains(other SystemID) bool {
	return s.N == other.N && other.I <= s.I && s.J <= other.J
}

// Problem identifies a (t,k,n)-agreement instance: n processes, at most k
// distinct decisions, termination under at most t crashes.
type Problem struct {
	T, K, N int
}

// Validate checks 1 ≤ t ≤ n−1 and 1 ≤ k ≤ n (§3).
func (p Problem) Validate() error {
	if p.N < 2 || p.N > procset.MaxProcs {
		return fmt.Errorf("core: n = %d out of range [2,%d]", p.N, procset.MaxProcs)
	}
	if p.T < 1 || p.T > p.N-1 {
		return fmt.Errorf("core: t = %d out of range [1,%d]", p.T, p.N-1)
	}
	if p.K < 1 || p.K > p.N {
		return fmt.Errorf("core: k = %d out of range [1,%d]", p.K, p.N)
	}
	return nil
}

// String renders the problem as "(t,k,n)-agreement".
func (p Problem) String() string { return fmt.Sprintf("(%d,%d,%d)-agreement", p.T, p.K, p.N) }

// SolvableIn implements Theorem 27 (extended to k > t, where the problem is
// solvable even in the asynchronous system): (t,k,n)-agreement is solvable
// in S^i_{j,n} iff k ≥ t+1, or i ≤ k and j−i ≥ (t+1)−k.
func (p Problem) SolvableIn(s SystemID) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	if err := s.Validate(); err != nil {
		return false, err
	}
	if s.N != p.N {
		return false, fmt.Errorf("core: problem over n = %d, system over n = %d", p.N, s.N)
	}
	if p.K >= p.T+1 {
		return true, nil
	}
	return s.I <= p.K && s.J-s.I >= p.T+1-p.K, nil
}

// MatchingSystem returns S^k_{t+1,n}, the system that Theorem 24 shows
// sufficient for (t,k,n)-agreement and that Theorem 27 shows is tight:
// it solves (t,k,n) but neither (t+1,k,n) nor (t,k−1,n). For k ≥ t+1 it
// returns the asynchronous system.
func (p Problem) MatchingSystem() SystemID {
	if p.K >= p.T+1 {
		return Asynchronous(p.N)
	}
	return Sij(p.K, p.T+1, p.N)
}

// DetectorK returns the k-anti-Ω parameter used to solve the problem in the
// given system: l = i + max(0, t+1−j), the Theorem 27 case 1 construction.
// When j ≥ t+1 the schedule is already in S^i_{t+1,n} (Observation 4) so
// l = i; when j < t+1 the padding argument of case 1(b) applies. The result
// is ≤ k exactly when the problem is solvable. It returns 0 for trivial
// (k ≥ t+1) configurations, which need no detector.
func (p Problem) DetectorK(s SystemID) int {
	if p.K >= p.T+1 {
		return 0
	}
	l := s.I
	if s.J < p.T+1 {
		l += p.T + 1 - s.J
	}
	return l
}

// AgreementConfig maps the problem and system to the kset configuration that
// solves it. It fails when Theorem 27 says the combination is unsolvable.
func (p Problem) AgreementConfig(s SystemID) (kset.Config, error) {
	ok, err := p.SolvableIn(s)
	if err != nil {
		return kset.Config{}, err
	}
	if !ok {
		return kset.Config{}, fmt.Errorf("core: %v is not solvable in %v (Theorem 27: need i ≤ k and j−i ≥ t+1−k)", p, s)
	}
	cfg := kset.Config{N: p.N, K: p.K, T: p.T}
	if cfg.UsesTrivialAlgorithm() {
		return cfg, nil
	}
	if dk := p.DetectorK(s); dk < p.K {
		cfg.DetectorK = dk
	}
	return cfg, nil
}
