// Direct-dispatch forms of the commit-adopt object and the consensus chain:
// the same automata as Object.Propose and Consensus.Attempt with their
// program counters made explicit, for sim.Runner's machine mode. They issue
// op-for-op the operation streams of their coroutine originals (pinned by
// machine_test.go), so the explorer can reuse one pooled runner across
// millions of schedules without goroutine churn.

package commitadopt

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Register-name builders shared by the coroutine and machine forms, so both
// intern the same slots.
func regNameA(object string, q int) string    { return fmt.Sprintf("ca[%s].A[%d]", object, q) }
func regNameB(object string, q int) string    { return fmt.Sprintf("ca[%s].B[%d]", object, q) }
func regNameDec(instance string) string       { return fmt.Sprintf("cacons[%s].D", instance) }
func roundName(instance string, r int) string { return fmt.Sprintf("%s.r%d", instance, r) }

// proposeLayout is one commit-adopt object's immutable machine layout: its
// interned registers and prebuilt read ops, shared read-only by every
// process's ProposeMachine on the object and kept in the runner's layout
// cache across Reset. Slices are 1-based on the process index.
type proposeLayout struct {
	n            int
	a, b         []sim.Ref
	readA, readB []sim.Op
}

// proposeKey keys a standalone object's layout in the runner's cache.
type proposeKey struct {
	object string
	n      int
}

// newProposeLayout interns the named object's registers, in the same order
// as the coroutine form.
func newProposeLayout(regs sim.Registry, object string, n int) *proposeLayout {
	l := &proposeLayout{
		n:     n,
		a:     make([]sim.Ref, n+1),
		b:     make([]sim.Ref, n+1),
		readA: make([]sim.Op, n+1),
		readB: make([]sim.Op, n+1),
	}
	for q := 1; q <= n; q++ {
		l.a[q] = regs.Reg(regNameA(object, q))
		l.b[q] = regs.Reg(regNameB(object, q))
		l.readA[q] = sim.ReadOp(l.a[q])
		l.readB[q] = sim.ReadOp(l.b[q])
	}
	return l
}

// chainLayout is one consensus chain instance's immutable machine layout:
// the decision register and the per-round object layouts. Rounds are keyed
// by number, not by a formatted name, and memoised as they are first
// reached — rounds are entered in order, so the memo grows by appending,
// and an entry never changes once built.
type chainLayout struct {
	instance string
	n        int
	dec      sim.Ref
	readDec  sim.Op
	rounds   []*proposeLayout // rounds[r-1] is round r's object
}

// chainKey keys a chain instance's layout in the runner's cache.
type chainKey struct {
	instance string
	n        int
}

func chainLayoutFor(regs sim.Registry, instance string, n int) *chainLayout {
	return sim.Layout(regs, chainKey{instance, n}, func() *chainLayout {
		dec := regs.Reg(regNameDec(instance))
		return &chainLayout{instance: instance, n: n, dec: dec, readDec: sim.ReadOp(dec)}
	})
}

// round returns round r's object layout, interning its registers the first
// time any process of the runner reaches the round.
func (l *chainLayout) round(regs sim.Registry, r int) *proposeLayout {
	for len(l.rounds) < r {
		l.rounds = append(l.rounds, newProposeLayout(regs, roundName(l.instance, len(l.rounds)+1), l.n))
	}
	return l.rounds[r-1]
}

// proposePhase locates a ProposeMachine inside the two collect phases.
type proposePhase int

const (
	ppStart    proposePhase = iota // nothing issued yet
	ppWroteA                       // the phase-1 publish is in flight
	ppReadingA                     // reading a[q]
	ppWroteB                       // the phase-2 publish is in flight
	ppReadingB                     // reading b[q]
	ppDone                         // halted; commit and val hold the outcome
)

// ProposeMachine is the direct-dispatch form of Object.Propose: a one-shot
// automaton that proposes v and halts after delivering (commit, value) to
// the done callback. Like Propose, it costs 2 writes + 2·n reads.
type ProposeMachine struct {
	l    *proposeLayout
	self procset.ID
	v    any

	unanimous bool
	commitVal any
	sawOther  bool

	phase proposePhase
	q     int

	// commit and val are the outcome once the machine halts; the chain
	// machines read them instead of passing a done callback.
	commit bool
	val    any

	done  func(commit bool, val any)
	opBuf sim.Op // stable storage behind NextOp's write ops
}

// NewProposeMachine builds the machine for one process's proposal to the
// named object. done runs inside the NextOp call that consumes the final
// collect read — the same serial window in which Propose would return —
// and then the machine halts. It performs no steps.
func NewProposeMachine(regs sim.Registry, object string, self procset.ID, n int, v any, done func(commit bool, val any)) *ProposeMachine {
	if v == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	l := sim.Layout(regs, proposeKey{object, n}, func() *proposeLayout {
		return newProposeLayout(regs, object, n)
	})
	m := &ProposeMachine{}
	m.reset(l, self, v, done)
	return m
}

// reset rearms m in place as a fresh proposal of v on the object behind l.
// The chain machines reuse one inner machine this way for every round,
// with no done callback.
func (m *ProposeMachine) reset(l *proposeLayout, self procset.ID, v any, done func(commit bool, val any)) {
	*m = ProposeMachine{l: l, self: self, v: v, unanimous: true, done: done}
}

// Rearm implements sim.Rearmer: m becomes the machine NewProposeMachine
// built, proposing the same value to the same object with the same done.
func (m *ProposeMachine) Rearm() { m.reset(m.l, m.self, m.v, m.done) }

// NextOp implements sim.Machine, mirroring Object.Propose operation for
// operation: collect reads come straight from the layout's op tables, the
// two publishes land in opBuf. nil halts the machine.
func (m *ProposeMachine) NextOp(prev any) *sim.Op {
	switch m.phase {
	case ppStart:
		// Phase 1: publish the proposal.
		m.phase = ppWroteA
		m.opBuf = sim.WriteOp(m.l.a[m.self], m.v)
		return &m.opBuf
	case ppWroteA:
		m.phase, m.q = ppReadingA, 1
		return &m.l.readA[1]
	case ppReadingA:
		if prev != nil && prev != m.v {
			m.unanimous = false
		}
		if m.q < m.l.n {
			m.q++
			return &m.l.readA[m.q]
		}
		// Phase 2: publish the candidate with its tag.
		m.phase = ppWroteB
		m.opBuf = sim.WriteOp(m.l.b[m.self], phase2Val{Val: m.v, CommitTry: m.unanimous})
		return &m.opBuf
	case ppWroteB:
		m.phase, m.q = ppReadingB, 1
		return &m.l.readB[1]
	case ppReadingB:
		if prev != nil {
			p2, ok := prev.(phase2Val)
			if !ok {
				panic(fmt.Sprintf("commitadopt: register holds %T", prev))
			}
			if p2.CommitTry {
				m.commitVal = p2.Val
			} else {
				m.sawOther = true
			}
		}
		if m.q < m.l.n {
			m.q++
			return &m.l.readB[m.q]
		}
		// Resolve exactly as Propose does and halt.
		switch {
		case m.commitVal != nil && !m.sawOther:
			m.commit, m.val = true, m.commitVal
		case m.commitVal != nil:
			m.commit, m.val = false, m.commitVal
		default:
			m.commit, m.val = false, m.v
		}
		m.phase = ppDone
		if m.done != nil {
			m.done(m.commit, m.val)
		}
		return nil
	default:
		panic(fmt.Sprintf("commitadopt: invalid propose phase %d", m.phase))
	}
}

// consensusPhase locates a ConsensusMachine in the chain loop.
type consensusPhase int

const (
	cpStart    consensusPhase = iota // nothing issued yet
	cpCheckDec                       // the decision-register read is in flight
	cpInner                          // the current round's commit-adopt is running
	cpWroteDec                       // the decision write is in flight
)

// ConsensusMachine is the direct-dispatch form of the Consensus chain run
// to decision: the automaton of a process that calls Attempt(proposal) in
// an endless loop and halts once a round commits — the shape the explorer's
// chain-consensus target executes. done receives the decision.
type ConsensusMachine struct {
	l        *chainLayout
	regs     sim.Registry
	self     procset.ID
	proposal any

	est   any
	round int

	phase consensusPhase
	// inner is the current round's commit-adopt proposal, rearmed in place
	// every round.
	inner ProposeMachine
	opBuf sim.Op // stable storage behind the decision write

	done func(val any)
}

// NewConsensusMachine builds the machine for one process of the named
// instance. It performs no steps; round objects intern their registers
// lazily as rounds are first reached on the runner.
func NewConsensusMachine(regs sim.Registry, instance string, self procset.ID, n int, proposal any, done func(val any)) *ConsensusMachine {
	if proposal == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	return &ConsensusMachine{
		l:        chainLayoutFor(regs, instance, n),
		regs:     regs,
		self:     self,
		proposal: proposal,
		done:     done,
	}
}

// Rearm implements sim.Rearmer: m becomes the machine NewConsensusMachine
// built, back before round one with the same proposal and done.
func (m *ConsensusMachine) Rearm() {
	*m = ConsensusMachine{l: m.l, regs: m.regs, self: m.self, proposal: m.proposal, done: m.done}
}

// NextOp implements sim.Machine, mirroring the Attempt loop operation for
// operation: read the decision register; if undecided, run one commit-adopt
// round on the current estimate; on commit, publish the decision and halt.
func (m *ConsensusMachine) NextOp(prev any) *sim.Op {
	switch m.phase {
	case cpStart:
		m.phase = cpCheckDec
		return &m.l.readDec
	case cpCheckDec:
		if prev != nil {
			if m.done != nil {
				m.done(prev)
			}
			return nil
		}
		if m.est == nil {
			m.est = m.proposal
		}
		m.round++
		m.inner.reset(m.l.round(m.regs, m.round), m.self, m.est, nil)
		m.phase = cpInner
		return m.inner.NextOp(nil) // a fresh propose machine always has a first op
	case cpInner:
		if op := m.inner.NextOp(prev); op != nil {
			return op
		}
		m.est = m.inner.val
		if !m.inner.commit {
			// Next attempt: re-check the decision register.
			m.phase = cpCheckDec
			return &m.l.readDec
		}
		m.phase = cpWroteDec
		m.opBuf = sim.WriteOp(m.l.dec, m.inner.val)
		return &m.opBuf
	case cpWroteDec:
		if m.done != nil {
			m.done(m.inner.val)
		}
		return nil
	default:
		panic(fmt.Sprintf("commitadopt: invalid consensus phase %d", m.phase))
	}
}
