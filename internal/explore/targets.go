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

// Named targets: the protocols whose safety the explorer guards, each
// defined once in the targets table and reached by name from
// cmd/stm-campaign and the tests. Every target exists in two forms with
// bit-identical verdicts: a Builder (the coroutine reference, a fresh run
// per schedule) and a targetRig (the direct-dispatch Machine wiring), which
// the pooled fuzz and exhaustive paths run on a reusable runner and the
// Byzantine sweep runs under a corrupting director. Builders and rigs are
// safe for concurrent use by campaign workers.

// Target names accepted by TargetBuilder, PooledTargetBuilder and
// ByzantineCampaign.
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

// protocol is one named target in its two forms.
type protocol struct {
	// builder is the coroutine reference for n processes.
	builder func(n int) Builder
	// rig builds the direct-dispatch wiring for n processes, validating
	// the target's parameters.
	rig func(n int) (targetRig, error)
}

// targetRig is one target's direct-dispatch wiring: the per-process
// machine factory plus the harness hooks over its result slots.
type targetRig struct {
	machine func(procset.ID, sim.Registry) sim.Machine
	// reset restores the result slots before each run.
	reset func()
	// check applies the safety properties to the processes outside corrupt:
	// a Byzantine process's own outputs carry no obligations. The pooled
	// path passes the empty set.
	check func(corrupt procset.Set) error
	// progress reports whether every process in honest got its result —
	// a Byzantine run's liveness verdict and its early-stop condition.
	progress func(honest procset.Set) bool
}

// targets is the one definition of every named target.
var targets = map[string]protocol{
	TargetCommitAdopt: {commitAdoptBuilder, commitAdoptRig},
	TargetConsensus:   attemptTarget(consensus.NewInstance, consensus.AttemptLoopMachine),
	TargetCAChain:     attemptTarget(commitadopt.NewConsensus, commitadopt.NewConsensusMachine),
	TargetKSet: {
		builder: func(n int) Builder { return ksetBuilder(ksetConfig(n)) },
		rig:     func(n int) (targetRig, error) { return ksetRig(ksetConfig(n)) },
	},
	TargetBG: {bgBuilder, bgRig},
}

func unknownTarget(name string) error {
	return fmt.Errorf("explore: unknown target %q (want %s, %s, %s, %s, or %s; the byzantine sweep also takes %s)",
		name, TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG, TargetAntiOmega)
}

// lookup returns the named target after building its rig once for n
// processes, so a bad name or n surfaces as an error before any campaign
// worker runs.
func lookup(name string, n int) (protocol, error) {
	t, ok := targets[name]
	if !ok {
		return protocol{}, unknownTarget(name)
	}
	if n < 1 || n > procset.MaxProcs {
		return protocol{}, fmt.Errorf("explore: n = %d out of range [1,%d]", n, procset.MaxProcs)
	}
	_, err := t.rig(n)
	return t, err
}

// TargetBuilder returns the named builder (fresh-run path) for n processes.
func TargetBuilder(name string, n int) (Builder, error) {
	t, err := lookup(name, n)
	if err != nil {
		return nil, err
	}
	return t.builder(n), nil
}

// PooledTargetBuilder returns the named pooled builder for n processes: one
// direct-dispatch runner per Run, machines rebuilt by Runner.Reset.
func PooledTargetBuilder(name string, n int) (PooledBuilder, error) {
	t, err := lookup(name, n)
	if err != nil {
		return nil, err
	}
	return func() (*Run, error) {
		rig, err := t.rig(n)
		if err != nil {
			return nil, err
		}
		runner, err := sim.NewRunner(sim.Config{N: n, Machine: rig.machine})
		if err != nil {
			return nil, err
		}
		return &Run{Runner: runner, Reset: rig.reset, Check: func() error { return rig.check(procset.EmptySet) }}, nil
	}, nil
}

// slotRig is the rig of a target whose harness keeps one result slot per
// process: reset clears the slots, and a process has progressed once its
// slot is set.
func slotRig[T comparable](slots []T, machine func(procset.ID, sim.Registry) sim.Machine, check func(procset.Set) error) targetRig {
	var zero T
	return targetRig{
		machine: machine,
		reset:   func() { clear(slots) },
		check:   check,
		progress: func(honest procset.Set) bool {
			for _, p := range honest.Members() {
				if slots[p] == zero {
					return false
				}
			}
			return true
		},
	}
}

// caResult is one process's delivered commit-adopt outcome.
type caResult struct {
	commit bool
	val    any
}

// checkCommitAdopt enforces, over the processes outside skip, validity,
// agreement on commit, and that every finisher adopted the committed value.
func checkCommitAdopt(n int, results []*caResult, skip procset.Set) error {
	var committed any
	for p := 1; p <= n; p++ {
		r := results[p]
		if r == nil || skip.Contains(procset.ID(p)) {
			continue // unfinished within this schedule, or exempt: fine
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
		if r := results[p]; r != nil && !skip.Contains(procset.ID(p)) && r.val != committed {
			return fmt.Errorf("p%d carries %v, committed %v", p, r.val, committed)
		}
	}
	return nil
}

// commitAdoptBuilder builds a commit-adopt run where each process proposes
// its id.
func commitAdoptBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		results := make([]*caResult, n+1)
		algo := func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := commitadopt.New(env, "x")
				c, v := o.Propose(int(p))
				results[p] = &caResult{commit: c, val: v}
			}
		}
		return algo, func() error { return checkCommitAdopt(n, results, procset.EmptySet) }
	}
}

func commitAdoptRig(n int) (targetRig, error) {
	results := make([]*caResult, n+1)
	return slotRig(results,
		func(p procset.ID, regs sim.Registry) sim.Machine {
			return commitadopt.NewProposeMachine(regs, "x", p, n, int(p), func(commit bool, val any) {
				results[p] = &caResult{commit: commit, val: val}
			})
		},
		func(skip procset.Set) error { return checkCommitAdopt(n, results, skip) }), nil
}

// checkDecisions enforces, over the processes outside skip, that decisions
// are proposals (10·p) and agree.
func checkDecisions(n int, decisions []any, skip procset.Set) error {
	var first any
	for p := 1; p <= n; p++ {
		d := decisions[p]
		if d == nil || skip.Contains(procset.ID(p)) {
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

// attemptTarget is a target of contending proposers on one consensus
// engine: process p repeatedly attempts value 10·p on the object "c" until
// it decides, and the check is checkDecisions. object builds the coroutine
// form's object, machine the direct-dispatch attempt loop.
func attemptTarget[O interface{ Attempt(any) (any, bool) }, M sim.Machine](
	object func(sim.Env, string) O,
	machine func(sim.Registry, string, procset.ID, int, any, func(any)) M,
) protocol {
	builder := func(n int) Builder {
		return func() (func(procset.ID) sim.Algorithm, func() error) {
			decisions := make([]any, n+1)
			algo := func(p procset.ID) sim.Algorithm {
				return func(env sim.Env) {
					in := object(env, "c")
					for {
						if d, ok := in.Attempt(int(p) * 10); ok {
							decisions[p] = d
							return
						}
					}
				}
			}
			return algo, func() error { return checkDecisions(n, decisions, procset.EmptySet) }
		}
	}
	rig := func(n int) (targetRig, error) {
		decisions := make([]any, n+1)
		return slotRig(decisions,
			func(p procset.ID, regs sim.Registry) sim.Machine {
				return machine(regs, "c", p, n, int(p)*10, func(d any) { decisions[p] = d })
			},
			func(skip procset.Set) error { return checkDecisions(n, decisions, skip) }), nil
	}
	return protocol{builder, rig}
}

// ksetConfig is the fuzzed agreement problem for n processes: k = t = n/2,
// which keeps the detector ∘ consensus composition (Theorem 24's path) in
// play for every n ≥ 2.
func ksetConfig(n int) kset.Config {
	kt := max(n/2, 1)
	return kset.Config{N: n, K: kt, T: kt}
}

// ksetProposal is the kset target's input: process p proposes 10·p.
func ksetProposal(p procset.ID) any { return int(p) * 10 }

// checkKSet enforces the two safety properties that hold on every schedule,
// over the processes outside skip: validity (decisions are proposals, here
// 10·p) and uniform k-agreement (at most k distinct decisions). Termination
// is a liveness property and is not required of arbitrary fuzz schedules.
func checkKSet(cfg kset.Config, ag *kset.Agreement, skip procset.Set) error {
	distinct := make(map[any]bool)
	for p := 1; p <= cfg.N; p++ {
		id := procset.ID(p)
		if skip.Contains(id) {
			continue
		}
		d, ok := ag.Decision(id)
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
		honest := ""
		if !skip.IsEmpty() {
			honest = "honest "
		}
		return fmt.Errorf("%d distinct %sdecisions, k = %d", len(distinct), honest, cfg.K)
	}
	return nil
}

// ksetBuilder builds the Theorem 24 agreement run for cfg.
func ksetBuilder(cfg kset.Config) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		ag, err := kset.New(cfg, nil)
		if err != nil {
			panic(err) // parameters were validated by TargetBuilder
		}
		return ag.Algorithm(ksetProposal), func() error { return checkKSet(cfg, ag, procset.EmptySet) }
	}
}

func ksetRig(cfg kset.Config) (targetRig, error) {
	ag, err := kset.New(cfg, nil)
	if err != nil {
		return targetRig{}, err
	}
	return targetRig{
		machine:  ag.Machine(ksetProposal),
		reset:    ag.Reset,
		check:    func(skip procset.Set) error { return checkKSet(cfg, ag, skip) },
		progress: func(honest procset.Set) bool { return honest.SubsetOf(ag.DecidedSet()) },
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

// bgBuilder builds a BG simulation run (n simulators, wait-min threads).
func bgBuilder(n int) Builder {
	return func() (func(procset.ID) sim.Algorithm, func() error) {
		simn, err := newBGSimulation(n)
		if err != nil {
			panic(err) // parameters were validated by TargetBuilder
		}
		return simn.Algorithm, func() error { return checkBG(n, simn) }
	}
}

func bgRig(n int) (targetRig, error) {
	simn, err := newBGSimulation(n)
	if err != nil {
		return targetRig{}, err
	}
	threads, _, _ := bgShape(n)
	return targetRig{
		machine: simn.Machine,
		reset:   simn.Reset,
		// Thread decisions are joint work of all simulators, so no process's
		// can be exempted: the full check applies.
		check: func(procset.Set) error { return checkBG(n, simn) },
		progress: func(procset.Set) bool {
			for i := 1; i <= threads; i++ {
				if _, ok := simn.ThreadDecision(i); !ok {
					return false
				}
			}
			return true
		},
	}, nil
}
