package explore

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/bg"
	"github.com/settimeliness/settimeliness/internal/commitadopt"
	"github.com/settimeliness/settimeliness/internal/consensus"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Named fuzz targets: ready-made builders for the protocols whose safety the
// explorer guards, used by cmd/stm-campaign and reusable from tests. Every
// target exists in two forms with bit-identical verdicts: a Builder (fresh
// coroutine run per schedule) and a PooledBuilder (per-worker reusable run
// on the protocol's direct-dispatch Machine port). Each returned builder is
// safe for concurrent use by campaign workers.

// Target names accepted by TargetBuilder and PooledTargetBuilder.
const (
	TargetCommitAdopt = "commitadopt"
	TargetConsensus   = "consensus"
	// TargetCAChain is consensus built from the commit-adopt chain engine —
	// the same workload as TargetConsensus on the repo's second engine.
	TargetCAChain = "cachain"
	// TargetKSet is the full Theorem 24 agreement construction (detector ∘
	// consensus composition) at k = t = n/2.
	TargetKSet = "kset"
	// TargetBG is the Borowsky–Gafni simulation substrate: n simulators over
	// an (n+2)-thread wait-min protocol.
	TargetBG = "bg"
)

func unknownTarget(name string) error {
	return fmt.Errorf("explore: unknown fuzz target %q (want %s, %s, %s, %s, or %s)",
		name, TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG)
}

// TargetBuilder returns the named builder (fresh-run path) for n processes.
// Parameterized targets (kset, bg) are validated here, so a bad n surfaces
// as an error before any campaign worker runs.
func TargetBuilder(name string, n int) (Builder, error) {
	switch name {
	case TargetCommitAdopt:
		return CommitAdoptBuilder(n), nil
	case TargetConsensus:
		return ConsensusBuilder(n), nil
	case TargetCAChain:
		return CAChainBuilder(n), nil
	case TargetKSet:
		if _, err := kset.New(ksetConfig(n), nil); err != nil {
			return nil, err
		}
		return KSetBuilder(n), nil
	case TargetBG:
		if _, err := newBGSimulation(n); err != nil {
			return nil, err
		}
		return BGBuilder(n), nil
	default:
		return nil, unknownTarget(name)
	}
}

// PooledTargetBuilder returns the named pooled builder for n processes. All
// targets now run their direct-dispatch Machine ports.
func PooledTargetBuilder(name string, n int) (PooledBuilder, error) {
	switch name {
	case TargetCommitAdopt:
		return CommitAdoptPooledBuilder(n), nil
	case TargetConsensus:
		return ConsensusPooledBuilder(n), nil
	case TargetCAChain:
		return CAChainPooledBuilder(n), nil
	case TargetKSet:
		if _, err := kset.New(ksetConfig(n), nil); err != nil {
			return nil, err
		}
		return KSetPooledBuilder(n), nil
	case TargetBG:
		if _, err := newBGSimulation(n); err != nil {
			return nil, err
		}
		return BGPooledBuilder(n), nil
	default:
		return nil, unknownTarget(name)
	}
}

// caResult is one process's delivered commit-adopt outcome.
type caResult struct {
	commit bool
	val    any
}

// checkCommitAdopt enforces validity, agreement on commit, and that every
// finisher adopted the committed value.
func checkCommitAdopt(n int, results []*caResult) error {
	var committed any
	for p := 1; p <= n; p++ {
		r := results[p]
		if r == nil {
			continue // did not finish within this schedule: fine
		}
		v, ok := r.val.(int)
		if !ok || v < 1 || v > n {
			return fmt.Errorf("p%d returned non-proposal %v", p, r.val)
		}
		if r.commit {
			if committed != nil && committed != r.val {
				return fmt.Errorf("commit disagreement: %v vs %v", committed, r.val)
			}
			committed = r.val
		}
	}
	if committed == nil {
		return nil
	}
	for p := 1; p <= n; p++ {
		if r := results[p]; r != nil && r.val != committed {
			return fmt.Errorf("p%d carries %v, committed %v", p, r.val, committed)
		}
	}
	return nil
}

// CommitAdoptBuilder builds a commit-adopt run where each process proposes
// its id; the check enforces validity, agreement on commit, and that every
// finisher adopted the committed value.
func CommitAdoptBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		results := make([]*caResult, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := commitadopt.New(env, "x")
				c, v := o.Propose(int(p))
				results[p] = &caResult{commit: c, val: v}
			}
		}
		return algo, func() error { return checkCommitAdopt(n, results) }
	}
}

// targetRig is one pooled target's wiring: the per-process machine factory
// plus the harness hooks a Run carries. The pooled builders run it on an
// observer-free runner; the reset tests attach an observer to the same
// wiring.
type targetRig struct {
	machine func(procset.ID, sim.Registry) sim.Machine
	reset   func()
	check   func() error
}

// pooledBuilder returns the PooledBuilder running rig's wiring for n
// processes, one fresh rig per Run.
func pooledBuilder(n int, rig func() (targetRig, error)) PooledBuilder {
	return func() (*Run, error) {
		r, err := rig()
		if err != nil {
			return nil, err
		}
		runner, err := sim.NewRunner(sim.Config{N: n, Machine: r.machine})
		if err != nil {
			return nil, err
		}
		return &Run{Runner: runner, Reset: r.reset, Check: r.check}, nil
	}
}

// CommitAdoptPooledBuilder is CommitAdoptBuilder on the pooled path: one
// direct-dispatch runner per worker, machines rebuilt by Runner.Reset.
func CommitAdoptPooledBuilder(n int) PooledBuilder {
	return pooledBuilder(n, func() (targetRig, error) { return commitAdoptRig(n), nil })
}

func commitAdoptRig(n int) targetRig {
	results := make([]*caResult, n+1)
	return targetRig{
		machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return commitadopt.NewProposeMachine(regs, "x", p, n, int(p), func(commit bool, val any) {
				results[p] = &caResult{commit: commit, val: val}
			})
		},
		reset: func() { clear(results) },
		check: func() error { return checkCommitAdopt(n, results) },
	}
}

// checkDecisions enforces that decisions are proposals (10·p) and agree.
func checkDecisions(n int, decisions []any) error {
	var first any
	for p := 1; p <= n; p++ {
		d := decisions[p]
		if d == nil {
			continue
		}
		v, ok := d.(int)
		if !ok || v%10 != 0 || v < 10 || v > 10*n {
			return fmt.Errorf("p%d decided non-proposal %v", p, d)
		}
		if first == nil {
			first = d
		} else if d != first {
			return fmt.Errorf("disagreement: %v vs %v", first, d)
		}
	}
	return nil
}

// ConsensusBuilder builds contending Disk-Paxos proposers (process p
// repeatedly attempts value 10p); the check enforces that decisions are
// proposals and agree.
func ConsensusBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		decisions := make([]any, n+1)
		algo := consensusAlgo(n, decisions)
		return algo, func() error { return checkDecisions(n, decisions) }
	}
}

// consensusAlgo is the Disk-Paxos workload shared by both consensus paths.
func consensusAlgo(n int, decisions []any) func(procset.ID) sim.Algorithm {
	return func(p procset.ID) sim.Algorithm {
		return func(env sim.Env) {
			in := consensus.NewInstance(env, "c")
			for {
				if d, ok := in.Attempt(int(p) * 10); ok {
					decisions[p] = d
					return
				}
			}
		}
	}
}

// ConsensusPooledBuilder is ConsensusBuilder on the pooled direct-dispatch
// path, running the consensus.AttemptLoopMachine port.
func ConsensusPooledBuilder(n int) PooledBuilder {
	return pooledBuilder(n, func() (targetRig, error) { return consensusRig(n), nil })
}

func consensusRig(n int) targetRig {
	decisions := make([]any, n+1)
	return targetRig{
		machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return consensus.AttemptLoopMachine(regs, "c", p, n, int(p)*10, func(d any) {
				decisions[p] = d
			})
		},
		reset: func() { clear(decisions) },
		check: func() error { return checkDecisions(n, decisions) },
	}
}

// CAChainBuilder builds contending commit-adopt-chain proposers (process p
// repeatedly attempts value 10p); the check is the same as for consensus.
func CAChainBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		decisions := make([]any, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				in := commitadopt.NewConsensus(env, "c")
				for {
					if d, ok := in.Attempt(int(p) * 10); ok {
						decisions[p] = d
						return
					}
				}
			}
		}
		return algo, func() error { return checkDecisions(n, decisions) }
	}
}

// ksetConfig is the fuzzed agreement problem for n processes: k = t = n/2,
// which keeps the detector ∘ consensus composition (Theorem 24's path) in
// play for every n ≥ 2.
func ksetConfig(n int) kset.Config {
	kt := n / 2
	if kt < 1 {
		kt = 1
	}
	return kset.Config{N: n, K: kt, T: kt}
}

// checkKSet enforces the two safety properties that hold on every schedule:
// validity (decisions are proposals, here 10·p) and uniform k-agreement (at
// most k distinct decisions). Termination is a liveness property and is not
// required of arbitrary fuzz schedules.
func checkKSet(cfg kset.Config, ag *kset.Agreement) error {
	distinct := make(map[any]bool)
	for p := 1; p <= cfg.N; p++ {
		d, ok := ag.Decision(procset.ID(p))
		if !ok {
			continue
		}
		v, isInt := d.(int)
		if !isInt || v%10 != 0 || v < 10 || v > 10*cfg.N {
			return fmt.Errorf("p%d decided non-proposal %v", p, d)
		}
		distinct[d] = true
	}
	if len(distinct) > cfg.K {
		return fmt.Errorf("%d distinct decisions, k = %d", len(distinct), cfg.K)
	}
	return nil
}

// KSetBuilder builds the full Theorem 24 agreement run (process p proposes
// 10·p); the check enforces validity and uniform k-agreement.
func KSetBuilder(n int) Builder {
	cfg := ksetConfig(n)
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		ag, err := kset.New(cfg, nil)
		if err != nil {
			panic(err) // parameters were validated by TargetBuilder
		}
		algo := ag.Algorithm(func(p procset.ID) any { return int(p) * 10 })
		return algo, func() error { return checkKSet(cfg, ag) }
	}
}

// KSetPooledBuilder is KSetBuilder on the pooled direct-dispatch path,
// running the detector-composed agreement machine.
func KSetPooledBuilder(n int) PooledBuilder {
	return pooledBuilder(n, func() (targetRig, error) { return ksetRig(ksetConfig(n)) })
}

func ksetRig(cfg kset.Config) (targetRig, error) {
	ag, err := kset.New(cfg, nil)
	if err != nil {
		return targetRig{}, err
	}
	return targetRig{
		machine: ag.Machine(func(p procset.ID) any { return int(p) * 10 }),
		reset:   ag.Reset,
		check:   func() error { return checkKSet(cfg, ag) },
	}, nil
}

// bgShape fixes the fuzzed simulation shape for n simulators: n+2 simulated
// threads of the wait-min protocol at resilience f = n−1 (the Theorem 26
// reduction's shape, m = f+1 simulators).
func bgShape(n int) (threads, f int, inputs []int) {
	threads, f = n+2, n-1
	inputs = make([]int, threads+1)
	for i := 1; i <= threads; i++ {
		inputs[i] = i * 10
	}
	return threads, f, inputs
}

// checkBG enforces the safety side of the wait-min protocol under
// simulation: decided threads decided valid inputs, with at most f+1 = n
// distinct values.
func checkBG(n int, simn *bg.Simulation) error {
	threads, f, _ := bgShape(n)
	distinct := make(map[any]bool)
	for i := 1; i <= threads; i++ {
		d, ok := simn.ThreadDecision(i)
		if !ok {
			continue
		}
		v, isInt := d.(int)
		if !isInt || v%10 != 0 || v < 10 || v > 10*threads {
			return fmt.Errorf("thread %d decided non-input %v", i, d)
		}
		distinct[d] = true
	}
	if len(distinct) > f+1 {
		return fmt.Errorf("%d distinct decisions, want ≤ f+1 = %d", len(distinct), f+1)
	}
	return nil
}

func newBGSimulation(n int) (*bg.Simulation, error) {
	_, f, inputs := bgShape(n)
	proto, err := bg.NewWaitMinProtocol(inputs, f)
	if err != nil {
		return nil, err
	}
	return bg.New(n, proto)
}

// BGBuilder builds a BG simulation run (n simulators, wait-min threads); the
// check enforces decision validity and the f+1 distinct-decision bound.
func BGBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		simn, err := newBGSimulation(n)
		if err != nil {
			panic(err) // parameters were validated by TargetBuilder
		}
		return simn.Algorithm, func() error { return checkBG(n, simn) }
	}
}

// BGPooledBuilder is BGBuilder on the pooled direct-dispatch path, running
// the simulator machine port.
func BGPooledBuilder(n int) PooledBuilder {
	return pooledBuilder(n, func() (targetRig, error) { return bgRig(n) })
}

func bgRig(n int) (targetRig, error) {
	simn, err := newBGSimulation(n)
	if err != nil {
		return targetRig{}, err
	}
	return targetRig{
		machine: simn.Machine,
		reset:   simn.Reset,
		check:   func() error { return checkBG(n, simn) },
	}, nil
}

// CAChainPooledBuilder is CAChainBuilder on the pooled direct-dispatch
// path, running the ConsensusMachine port.
func CAChainPooledBuilder(n int) PooledBuilder {
	return pooledBuilder(n, func() (targetRig, error) { return caChainRig(n), nil })
}

func caChainRig(n int) targetRig {
	decisions := make([]any, n+1)
	return targetRig{
		machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return commitadopt.NewConsensusMachine(regs, "c", p, n, int(p)*10, func(val any) {
				decisions[p] = val
			})
		},
		reset: func() { clear(decisions) },
		check: func() error { return checkDecisions(n, decisions) },
	}
}
