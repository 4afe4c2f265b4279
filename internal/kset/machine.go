// Direct-dispatch forms of the two agreement algorithms: the same automata
// as trivialAlgorithm and detectorAlgorithm with their program counters made
// explicit, for sim.Runner's machine mode. The detector-composed machine is
// the package's showcase of sub-automaton composition: it drives one
// antiomega.MachineInstance iteration (BeginIterationOp/FeedIterationOp) and
// the consensus sub-automata (consensus.InstanceMachine) through the exact
// operation interleaving of the coroutine loop, so both execution modes
// replay bit-identical StepInfo streams (pinned by machine_test.go). This is
// the hot path of the Theorem 24/27 experiments and of every agreement
// campaign.

package kset

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/consensus"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Machine returns the per-process direct-dispatch automata, the machine-mode
// analogue of Algorithm: the returned factory suits sim.Config.Machine.
// Proposal values must be non-nil and treated as immutable.
func (a *Agreement) Machine(proposal func(procset.ID) any) func(procset.ID, sim.Registry) sim.Machine {
	return func(p procset.ID, regs sim.Registry) sim.Machine {
		v := proposalOf(proposal, p)
		if a.cfg.UsesTrivialAlgorithm() {
			return newTrivialMachine(a, p, proposal, v, regs)
		}
		return newDetectorMachine(a, p, proposal, v, regs)
	}
}

// proposalOf returns p's proposal, which must be non-nil. The machines
// read it on every build and every Rearm: the harness may change the
// proposals between runs of a pooled runner.
func proposalOf(proposal func(procset.ID) any, p procset.ID) any {
	v := proposal(p)
	if v == nil {
		panic(fmt.Sprintf("kset: nil proposal for %v", p))
	}
	return v
}

// trivialMachine is the k ≥ t+1 automaton: a leader writes its value and
// decides; every other process cycles over the leader registers and adopts
// the first value it finds.
type trivialMachine struct {
	ag       *Agreement
	self     procset.ID
	proposal func(procset.ID) any
	v        any
	lay      *trivialLayout
	leaders  int
	wrote    bool
	l        int    // leader register whose read is in flight (0 = none yet)
	write    sim.Op // stable storage behind a leader's write
}

// trivialLayout is the trivial algorithm's leader registers and their
// prebuilt read ops, 1-based on the leader index and shared by every
// machine of the runner.
type trivialLayout struct {
	refs  []sim.Ref
	reads []sim.Op
}

// trivialKey keys the trivial algorithm's layout in the runner's layout
// cache.
type trivialKey struct{ leaders int }

func newTrivialMachine(a *Agreement, p procset.ID, proposal func(procset.ID) any, v any, regs sim.Registry) *trivialMachine {
	leaders := a.cfg.T + 1
	lay := sim.Layout(regs, trivialKey{leaders}, func() *trivialLayout {
		lay := &trivialLayout{refs: make([]sim.Ref, leaders+1), reads: make([]sim.Op, leaders+1)}
		for l := 1; l <= leaders; l++ {
			lay.refs[l] = regs.Reg(fmt.Sprintf("ksettrivial.V[%d]", l))
			lay.reads[l] = sim.ReadOp(lay.refs[l])
		}
		return lay
	})
	return &trivialMachine{ag: a, self: p, proposal: proposal, v: v, leaders: leaders, lay: lay}
}

// Rearm implements sim.Rearmer: nothing written, no leader read, and the
// proposal read again.
func (m *trivialMachine) Rearm() {
	*m = trivialMachine{ag: m.ag, self: m.self, proposal: m.proposal, v: proposalOf(m.proposal, m.self), leaders: m.leaders, lay: m.lay}
}

// NextOp implements sim.Machine.
func (m *trivialMachine) NextOp(prev any) *sim.Op {
	if int(m.self) <= m.leaders {
		if !m.wrote {
			m.wrote = true
			m.write = sim.WriteOp(m.lay.refs[m.self], m.v)
			return &m.write
		}
		m.ag.decide(m.self, m.v)
		return nil
	}
	if m.l > 0 && prev != nil {
		m.ag.decide(m.self, prev)
		return nil
	}
	if m.l >= m.leaders {
		m.l = 0
	}
	m.l++
	return &m.lay.reads[m.l]
}

// dmPhase says which sub-automaton the operation in flight belongs to.
type dmPhase int

const (
	dmFD    dmPhase = iota // a detector-iteration operation
	dmCheck                // a decision probe of cons[r]
	dmLead                 // a leader attempt on cons[r]
)

// detectorMachine is the Theorem 24 composition in machine form: an endless
// loop of one Figure 2 iteration, dk decision probes, and attempts on the
// instances whose winnerset slot this process occupies.
type detectorMachine struct {
	ag       *Agreement
	self     procset.ID
	proposal func(procset.ID) any
	v        any
	dk       int
	fd       *antiomega.MachineInstance
	cons     []*consensus.InstanceMachine

	primed bool
	phase  dmPhase
	r      int         // instance cursor within the probe/lead sweeps
	w      procset.Set // winnerset captured after the latest iteration
	opBuf  sim.Op      // stable storage behind consensus sub-automaton ops
}

// consNamesKey keys the consensus instance names in the runner's layout
// cache.
type consNamesKey struct{ dk int }

func newDetectorMachine(a *Agreement, p procset.ID, proposal func(procset.ID) any, v any, regs sim.Registry) *detectorMachine {
	dk := a.cfg.detectorK()
	fd, err := antiomega.NewMachineInstance(antiomega.Config{N: a.cfg.N, K: dk, T: a.cfg.T}, p, regs)
	if err != nil {
		panic(err) // Config.Validate guarantees detector parameters
	}
	names := sim.Layout(regs, consNamesKey{dk}, func() []string {
		names := make([]string, dk)
		for r := range names {
			names[r] = fmt.Sprintf("kset[%d]", r)
		}
		return names
	})
	cons := make([]*consensus.InstanceMachine, dk)
	for r, name := range names {
		cons[r] = consensus.NewInstanceMachine(regs, name, p, a.cfg.N)
	}
	return &detectorMachine{ag: a, self: p, proposal: proposal, v: v, dk: dk, fd: fd, cons: cons}
}

// Rearm implements sim.Rearmer: the detector and every consensus handle
// rearmed in place, the loop back before its first iteration, and the
// proposal read again.
func (m *detectorMachine) Rearm() {
	m.v = proposalOf(m.proposal, m.self)
	m.fd.Rearm()
	for _, c := range m.cons {
		c.Rearm()
	}
	m.primed, m.phase, m.r = false, dmFD, 0
	m.w = procset.EmptySet
	m.opBuf = sim.Op{}
}

// NextOp implements sim.Machine: feed the result of the operation in flight
// to the sub-automaton that issued it, then run local transitions until the
// next operation — or a decision, which halts the automaton (nil) exactly
// where the coroutine form returns. Detector iterations run on the
// antiomega op tables end to end, and only the consensus sub-automaton ops
// (the minority of steps) land in opBuf.
func (m *detectorMachine) NextOp(prev any) *sim.Op {
	if !m.primed {
		m.primed = true
		m.phase = dmFD
		return m.fd.BeginIterationOp()
	}
	switch m.phase {
	case dmFD:
		if op := m.fd.FeedIterationOp(prev); op != nil {
			return op
		}
		m.w = m.fd.Winnerset()
		m.r = 0
		return m.startChecks()
	case dmCheck:
		if op, hasOp := m.cons[m.r].Feed(prev); hasOp {
			m.opBuf = op
			return &m.opBuf
		}
		if d, ok := m.cons[m.r].Result(); ok {
			m.ag.decide(m.self, d)
			return nil
		}
		m.r++
		return m.startChecks()
	case dmLead:
		if op, hasOp := m.cons[m.r].Feed(prev); hasOp {
			m.opBuf = op
			return &m.opBuf
		}
		if d, ok := m.cons[m.r].Result(); ok {
			m.ag.decide(m.self, d)
			return nil
		}
		m.r++
		return m.startLeads()
	default:
		panic(fmt.Sprintf("kset: invalid machine phase %d", m.phase))
	}
}

// startChecks probes the decision state of instances m.r.. in the fixed
// order of the coroutine loop, then moves on to the lead sweep.
func (m *detectorMachine) startChecks() *sim.Op {
	for ; m.r < m.dk; m.r++ {
		op, hasOp := m.cons[m.r].StartCheck()
		if hasOp {
			m.phase = dmCheck
			m.opBuf = op
			return &m.opBuf
		}
		if d, ok := m.cons[m.r].Result(); ok {
			m.ag.decide(m.self, d)
			return nil
		}
	}
	m.r = 0
	return m.startLeads()
}

// startLeads attempts the instances from m.r on whose winnerset slot this
// process sits, then loops back to the next detector iteration.
func (m *detectorMachine) startLeads() *sim.Op {
	for ; m.r < m.dk; m.r++ {
		if m.w.Nth(m.r) != m.self {
			continue
		}
		op, hasOp := m.cons[m.r].StartAttempt(m.v)
		if hasOp {
			m.phase = dmLead
			m.opBuf = op
			return &m.opBuf
		}
		if d, ok := m.cons[m.r].Result(); ok {
			m.ag.decide(m.self, d)
			return nil
		}
	}
	m.phase = dmFD
	return m.fd.BeginIterationOp()
}
