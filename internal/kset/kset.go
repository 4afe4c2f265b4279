// Package kset solves the t-resilient k-set agreement problem for n
// processes ((t,k,n)-agreement, §3 of the paper):
//
//   - Uniform k-agreement: processes decide at most k distinct values.
//   - Uniform validity: every decision is some process's initial value.
//   - Termination: if at most t processes are faulty, every correct process
//     eventually decides.
//
// Two algorithms are provided, matching the paper's case split:
//
//  1. k ≥ t+1 (Corollary 25's trivial case): processes 1..t+1 write their
//     value and decide it; everyone else adopts the first leader value they
//     see. At most t+1 ≤ k distinct decisions, and at least one leader is
//     correct.
//
//  2. k ≤ t (Theorem 24): each process interleaves the Figure 2
//     implementation of t-resilient k-anti-Ω (internal/antiomega) with k
//     parallel leader-based consensus instances (internal/consensus).
//     Instance r is led by whichever process is the r-th smallest member of
//     the local winnerset; a process decides the first instance decision it
//     observes. Figure 2 guarantees (Lemma 22) that all correct processes
//     converge to one winnerset A0 containing a correct process c (Lemma
//     20); the instance led by c then decides and every correct process
//     adopts. Decisions only ever come from the k decision registers, so at
//     most k distinct values are decided even by faulty processes.
//
// The detector parameter may be lowered below k (DetectorK) to realize the
// Theorem 27 case 1(b) reduction: in S^i_{j,n} with j < t+1, the schedule
// also lies in S^l_{t+1,n} for l = i + (t+1−j), so running the detector
// with parameter l solves the stronger (t,l,n)-agreement, which implies
// (t,k,n)-agreement because l ≤ k.
package kset

import (
	"fmt"
	"sync"

	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/commitadopt"
	"github.com/settimeliness/settimeliness/internal/consensus"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Engine selects the single-shot consensus substrate used by the detector
// path. Both are safe in every schedule and live under the stable winnerset;
// they trade step complexity differently (see BenchmarkEngineComparison).
type Engine int

// Engines.
const (
	// EnginePaxos is the Disk-Paxos-style ballot engine (default).
	EnginePaxos Engine = iota
	// EngineCommitAdopt is the commit-adopt chain engine.
	EngineCommitAdopt
)

// instance is the per-process consensus handle shared by both engines.
type instance interface {
	CheckDecision() (any, bool)
	Attempt(v any) (any, bool)
}

// Config parameterizes an agreement instance.
type Config struct {
	// N is the number of processes.
	N int
	// K is the agreement parameter: at most K distinct decisions.
	K int
	// T is the resilience: termination is guaranteed when at most T
	// processes crash.
	T int
	// DetectorK, when nonzero, overrides the k parameter of the underlying
	// k-anti-Ω detector (must satisfy 1 ≤ DetectorK ≤ min(K, T)). It is
	// used by the Theorem 27 reduction; leave zero for the default.
	DetectorK int
	// Engine selects the consensus substrate (EnginePaxos by default).
	Engine Engine
}

// Validate checks the parameter ranges of §3 and the detector override.
func (c Config) Validate() error {
	if c.N < 2 || c.N > procset.MaxProcs {
		return fmt.Errorf("kset: n = %d out of range [2,%d]", c.N, procset.MaxProcs)
	}
	if c.T < 1 || c.T > c.N-1 {
		return fmt.Errorf("kset: t = %d out of range [1,%d]", c.T, c.N-1)
	}
	if c.K < 1 || c.K > c.N {
		return fmt.Errorf("kset: k = %d out of range [1,%d]", c.K, c.N)
	}
	if c.DetectorK != 0 {
		if c.K >= c.T+1 {
			return fmt.Errorf("kset: DetectorK set but k = %d ≥ t+1 = %d uses the trivial algorithm", c.K, c.T+1)
		}
		if c.DetectorK < 1 || c.DetectorK > c.K || c.DetectorK > c.T {
			return fmt.Errorf("kset: DetectorK = %d out of range [1,min(k,t)] = [1,%d]",
				c.DetectorK, min(c.K, c.T))
		}
	}
	if !c.UsesTrivialAlgorithm() {
		return antiomega.Config{N: c.N, K: c.detectorK(), T: c.T}.Validate()
	}
	return nil
}

// detectorK returns the effective detector parameter for the FD-based path.
func (c Config) detectorK() int {
	if c.DetectorK != 0 {
		return c.DetectorK
	}
	return c.K
}

// UsesTrivialAlgorithm reports whether the configuration takes the k ≥ t+1
// fast path (no failure detector involved).
func (c Config) UsesTrivialAlgorithm() bool { return c.K >= c.T+1 }

// Agreement is the harness-facing protocol object. Decisions are published
// to it from algorithm code. Access is mutex-guarded so the same object
// works on the deterministic simulator and on the real-goroutine runtime
// (internal/live).
type Agreement struct {
	cfg      Config
	onDecide func(p procset.ID, v any)

	mu        sync.Mutex
	decisions []any // indexed by process (1-based); nil = undecided
}

// New builds an Agreement. onDecide, if non-nil, is invoked (serially, from
// algorithm code) when a process decides.
func New(cfg Config, onDecide func(p procset.ID, v any)) (*Agreement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Agreement{
		cfg:       cfg,
		decisions: make([]any, cfg.N+1),
		onDecide:  onDecide,
	}, nil
}

// Config returns the configuration.
func (a *Agreement) Config() Config { return a.cfg }

// Reset clears the recorded decisions so the harness can be reused across
// runs of a Reset simulator (the campaign pool's path).
func (a *Agreement) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	clear(a.decisions)
}

// Decision returns p's decision, if it has one.
func (a *Agreement) Decision(p procset.ID) (any, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := a.decisions[p]
	return v, v != nil
}

// DecidedSet returns the set of processes that have decided.
func (a *Agreement) DecidedSet() procset.Set {
	a.mu.Lock()
	defer a.mu.Unlock()
	var s procset.Set
	for p := 1; p <= a.cfg.N; p++ {
		if a.decisions[p] != nil {
			s = s.Add(procset.ID(p))
		}
	}
	return s
}

// DistinctDecisions returns the number of distinct decided values.
func (a *Agreement) DistinctDecisions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := make(map[any]bool)
	for p := 1; p <= a.cfg.N; p++ {
		if v := a.decisions[p]; v != nil {
			seen[v] = true
		}
	}
	return len(seen)
}

func (a *Agreement) decide(p procset.ID, v any) {
	a.mu.Lock()
	if a.decisions[p] != nil {
		a.mu.Unlock()
		return
	}
	a.decisions[p] = v
	a.mu.Unlock()
	if a.onDecide != nil {
		a.onDecide(p, v)
	}
}

// Algorithm returns the per-process code. proposal gives each process's
// initial value; values must be non-nil and treated as immutable.
// The returned function suits sim.Config.Algorithm.
func (a *Agreement) Algorithm(proposal func(procset.ID) any) func(procset.ID) sim.Algorithm {
	return func(p procset.ID) sim.Algorithm {
		v := proposal(p)
		if v == nil {
			panic(fmt.Sprintf("kset: nil proposal for %v", p))
		}
		if a.cfg.UsesTrivialAlgorithm() {
			return a.trivialAlgorithm(p, v)
		}
		return a.detectorAlgorithm(p, v)
	}
}

// trivialAlgorithm implements the k ≥ t+1 case: the first t+1 processes are
// leaders; a leader writes its value and decides it; every other process
// spins over the leader registers and adopts the first value it finds.
func (a *Agreement) trivialAlgorithm(p procset.ID, v any) sim.Algorithm {
	return func(env sim.Env) {
		leaders := a.cfg.T + 1
		refs := make([]sim.Ref, leaders+1)
		for l := 1; l <= leaders; l++ {
			refs[l] = env.Reg(fmt.Sprintf("ksettrivial.V[%d]", l))
		}
		if int(p) <= leaders {
			env.Write(refs[p], v)
			a.decide(p, v)
			return
		}
		for {
			for l := 1; l <= leaders; l++ {
				if got := env.Read(refs[l]); got != nil {
					a.decide(p, got)
					return
				}
			}
		}
	}
}

// detectorAlgorithm implements the Theorem 24 construction for k ≤ t.
func (a *Agreement) detectorAlgorithm(p procset.ID, v any) sim.Algorithm {
	return func(env sim.Env) {
		dk := a.cfg.detectorK()
		fdIn, err := antiomega.NewInstance(antiomega.Config{N: a.cfg.N, K: dk, T: a.cfg.T}, env)
		if err != nil {
			panic(err) // Config.Validate guarantees detector parameters
		}
		cons := make([]instance, dk)
		for r := range cons {
			name := fmt.Sprintf("kset[%d]", r)
			switch a.cfg.Engine {
			case EngineCommitAdopt:
				cons[r] = commitadopt.NewConsensus(env, name)
			default:
				cons[r] = consensus.NewInstance(env, name)
			}
		}
		for {
			// One detector iteration keeps the winnerset converging; its
			// step count per loop is bounded, preserving the Lemma 9
			// "bounded steps per iteration" argument.
			fdIn.Iterate()
			w := fdIn.Winnerset()
			// Adopt any existing decision, lowest instance first (the fixed
			// probe order makes runs reproducible).
			for r := 0; r < dk; r++ {
				if d, ok := cons[r].CheckDecision(); ok {
					a.decide(p, d)
					return
				}
			}
			// Lead the instances whose slot this process occupies in the
			// current winnerset.
			for r := 0; r < dk; r++ {
				if w.Nth(r) != p {
					continue
				}
				if d, ok := cons[r].Attempt(v); ok {
					a.decide(p, d)
					return
				}
			}
		}
	}
}
