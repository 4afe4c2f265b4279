// Direct-dispatch form of the Disk-Paxos instance: the automata of
// CheckDecision and Attempt with their program counters made explicit, for
// sim.Runner's machine mode. An InstanceMachine holds the same persistent
// per-process state as Instance (the local ballot block, the cached
// decision, the attempt counter) and exposes each call as a composable
// sub-automaton: Start* issues the call's first operation, Feed consumes
// results and issues the rest, Result delivers the return value once no
// operation remains. Composite automata — the kset agreement machine — drive
// these sub-automata between detector steps exactly as coroutine code calls
// the Instance methods, producing op-for-op identical streams (pinned by
// machine_test.go and the kset equivalence tests).

package consensus

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Register-name builders shared by the coroutine and machine forms, so both
// intern the same slots (and instrument.go's ParseRegister keeps matching).
func regNameDec(name string) string          { return fmt.Sprintf("consensus[%s].D", name) }
func regNameBlock(name string, q int) string { return fmt.Sprintf("consensus[%s].X[%d]", name, q) }

// callPhase locates the in-flight call's next pending operation.
type callPhase int

const (
	cpIdle      callPhase = iota
	cpCheckRead           // the decision-register read is in flight
	cpP1Write             // the phase-1 block publish is in flight
	cpP1Read              // reading blocks[q] in phase 1
	cpP2Write             // the phase-2 block publish is in flight
	cpP2Read              // reading blocks[q] in phase 2
	cpDecWrite            // the decision write is in flight
)

// InstanceMachine is the direct-dispatch counterpart of Instance: one
// process's handle on a named consensus object, with CheckDecision and
// Attempt exposed as explicit sub-automata.
//
// Protocol: call StartCheck or StartAttempt; while hasOp is true, have the
// runner execute the operation and pass its result to Feed; once Start* or
// Feed returns hasOp == false the call is complete and Result holds its
// return value. At most one call may be in flight at a time.
type InstanceMachine struct {
	l    *instanceLayout
	n    int
	self procset.ID

	block    xblock
	decided  any
	hasDec   bool
	attempts int

	attempting bool // current call is an Attempt (vs a bare CheckDecision)
	v          any
	phase      callPhase
	q          int
	ballot     int
	maxSeen    int
	adopt      xblock
	resVal     any
	resOk      bool
}

// instanceLayout is one consensus object's immutable machine layout: its
// interned registers and prebuilt read ops, shared read-only by every
// process's handle on the object and kept in the runner's layout cache
// across Reset. Block slices are 1-based on the process index.
type instanceLayout struct {
	dec       sim.Ref
	readDec   sim.Op
	blocks    []sim.Ref
	readBlock []sim.Op
}

// instanceKey keys an object's layout in the runner's cache.
type instanceKey struct {
	name string
	n    int
}

// instanceLayoutFor returns the named object's layout, interning the same
// registers as NewInstance, in the same order, on first use.
func instanceLayoutFor(regs sim.Registry, name string, n int) *instanceLayout {
	return sim.Layout(regs, instanceKey{name, n}, func() *instanceLayout {
		l := &instanceLayout{
			dec:       regs.Reg(regNameDec(name)),
			blocks:    make([]sim.Ref, n+1),
			readBlock: make([]sim.Op, n+1),
		}
		l.readDec = sim.ReadOp(l.dec)
		for q := 1; q <= n; q++ {
			l.blocks[q] = regs.Reg(regNameBlock(name, q))
			l.readBlock[q] = sim.ReadOp(l.blocks[q])
		}
		return l
	})
}

// NewInstanceMachine creates the machine-form handle for the consensus
// object with the given name. It performs no steps and interns the same
// registers as NewInstance.
func NewInstanceMachine(regs sim.Registry, name string, self procset.ID, n int) *InstanceMachine {
	m := &InstanceMachine{}
	m.init(regs, name, self, n)
	return m
}

// init initializes m in place, for callers that embed the handle by value.
func (m *InstanceMachine) init(regs sim.Registry, name string, self procset.ID, n int) {
	*m = InstanceMachine{l: instanceLayoutFor(regs, name, n), n: n, self: self}
}

// Rearm returns the handle to the state NewInstanceMachine built it in: no
// ballot started, no decision cached, no call in flight. The machines that
// hold handles rearm them this way (see sim.Rearmer).
func (m *InstanceMachine) Rearm() {
	*m = InstanceMachine{l: m.l, n: m.n, self: m.self}
}

// Attempts returns how many ballots this process has started.
func (m *InstanceMachine) Attempts() int { return m.attempts }

// Result returns the completed call's return value: for CheckDecision the
// (decision, known) pair, for Attempt the (decision, success) pair.
func (m *InstanceMachine) Result() (any, bool) { return m.resVal, m.resOk }

func (m *InstanceMachine) finish(val any, ok bool) (sim.Op, bool) {
	m.phase = cpIdle
	m.resVal, m.resOk = val, ok
	return sim.Op{}, false
}

// StartCheck begins a CheckDecision call. When hasOp is false the call
// completed without steps (the decision was already cached).
func (m *InstanceMachine) StartCheck() (op sim.Op, hasOp bool) {
	if m.hasDec {
		return m.finish(m.decided, true)
	}
	m.attempting = false
	m.phase = cpCheckRead
	return m.l.readDec, true
}

// StartAttempt begins an Attempt(v) call: one full ballot, preceded (as in
// Instance.Attempt) by a decision-register check. When hasOp is false the
// call completed without steps (the decision was already cached).
func (m *InstanceMachine) StartAttempt(v any) (op sim.Op, hasOp bool) {
	if v == nil {
		panic("consensus: nil proposals are not supported")
	}
	if m.hasDec {
		return m.finish(m.decided, true)
	}
	m.attempting, m.v = true, v
	m.phase = cpCheckRead
	return m.l.readDec, true
}

// nextBallot mirrors Instance.nextBallot on the machine's block state.
func (m *InstanceMachine) nextBallot(floor int) int {
	if floor < m.block.MBal {
		floor = m.block.MBal
	}
	b := floor + 1
	shift := (int(m.self) - b%m.n + m.n) % m.n
	return b + shift
}

// nextPeerRead advances the q cursor to the next peer (skipping self) and
// issues its block read, or reports that the sweep is over.
func (m *InstanceMachine) nextPeerRead() (sim.Op, bool) {
	for m.q++; m.q <= m.n; m.q++ {
		if m.q != int(m.self) {
			return m.l.readBlock[m.q], true
		}
	}
	return sim.Op{}, false
}

// blockOf mirrors Instance.readBlock's decoding: nil stands for the zero
// block.
func blockOf(v any) xblock {
	if v == nil {
		return xblock{}
	}
	b, ok := v.(xblock)
	if !ok {
		panic(fmt.Sprintf("consensus: register holds %T, want xblock", v))
	}
	return b
}

// Feed consumes the result of the operation in flight and issues the call's
// next operation; hasOp == false completes the call (see Result).
func (m *InstanceMachine) Feed(prev any) (op sim.Op, hasOp bool) {
	switch m.phase {
	case cpCheckRead:
		if prev != nil {
			m.decided, m.hasDec = prev, true
			return m.finish(m.decided, true)
		}
		if !m.attempting {
			return m.finish(m.decided, m.hasDec)
		}
		// Phase 1: claim a ballot and publish the block.
		m.attempts++
		m.ballot = m.nextBallot(0)
		m.block.MBal = m.ballot
		if m.block.Inp == nil {
			m.block.Inp = m.v
		}
		m.phase = cpP1Write
		return sim.WriteOp(m.l.blocks[m.self], m.block), true
	case cpP1Write:
		m.maxSeen = 0
		m.adopt = m.block
		m.phase, m.q = cpP1Read, 0
		if op, ok := m.nextPeerRead(); ok {
			return op, true
		}
		return m.closePhase1()
	case cpP1Read:
		b := blockOf(prev)
		if b.MBal > m.maxSeen {
			m.maxSeen = b.MBal
		}
		if b.Bal > m.adopt.Bal {
			m.adopt = b
		}
		if op, ok := m.nextPeerRead(); ok {
			return op, true
		}
		return m.closePhase1()
	case cpP2Write:
		m.phase, m.q = cpP2Read, 0
		if op, ok := m.nextPeerRead(); ok {
			return op, true
		}
		return m.closePhase2()
	case cpP2Read:
		if b := blockOf(prev); b.MBal > m.maxSeen {
			m.maxSeen = b.MBal
		}
		if op, ok := m.nextPeerRead(); ok {
			return op, true
		}
		return m.closePhase2()
	case cpDecWrite:
		m.decided, m.hasDec = m.block.Inp, true
		return m.finish(m.decided, true)
	default:
		panic(fmt.Sprintf("consensus: Feed with no call in flight (phase %d)", m.phase))
	}
}

// closePhase1 runs the local resolution after the phase-1 sweep: abort on a
// higher ballot, else adopt the strongest value and publish phase 2.
func (m *InstanceMachine) closePhase1() (sim.Op, bool) {
	if m.maxSeen > m.ballot {
		m.block.MBal = m.nextBallot(m.maxSeen)
		return m.finish(nil, false)
	}
	if m.adopt.Bal > 0 {
		m.block.Inp = m.adopt.Inp
	}
	m.block.Bal = m.ballot
	m.phase = cpP2Write
	return sim.WriteOp(m.l.blocks[m.self], m.block), true
}

// closePhase2 runs the local resolution after the phase-2 sweep: abort on a
// higher ballot, else write the decision.
func (m *InstanceMachine) closePhase2() (sim.Op, bool) {
	if m.maxSeen > m.ballot {
		m.block.MBal = m.nextBallot(m.maxSeen)
		return m.finish(nil, false)
	}
	m.phase = cpDecWrite
	return sim.WriteOp(m.l.dec, m.block.Inp), true
}

// AttemptLoopMachine is the contending-proposer automaton in machine form:
// Attempt(v) in an endless loop until some attempt succeeds, then deliver
// the decision to done and halt — the machine equivalent of the coroutine
// loop `for { if d, ok := in.Attempt(v); ok { ... return } }`.
func AttemptLoopMachine(regs sim.Registry, name string, self procset.ID, n int, v any, done func(any)) sim.Machine {
	m := &attemptLoop{v: v, done: done}
	m.in.init(regs, name, self, n)
	return m
}

// attemptLoop is AttemptLoopMachine's automaton: one allocation holding the
// instance handle and the loop state.
type attemptLoop struct {
	in       InstanceMachine
	v        any
	done     func(any)
	inFlight bool
	opBuf    sim.Op // stable storage behind the instance's ops
}

// Rearm implements sim.Rearmer: back before the first attempt.
func (m *attemptLoop) Rearm() {
	m.in.Rearm()
	m.inFlight = false
	m.opBuf = sim.Op{}
}

// NextOp implements sim.Machine.
func (m *attemptLoop) NextOp(prev any) *sim.Op {
	for {
		var op sim.Op
		var hasOp bool
		if m.inFlight {
			op, hasOp = m.in.Feed(prev)
		} else {
			op, hasOp = m.in.StartAttempt(m.v)
			m.inFlight = true
		}
		if hasOp {
			m.opBuf = op
			return &m.opBuf
		}
		if d, ok := m.in.Result(); ok {
			m.done(d)
			return nil
		}
		m.inFlight, prev = false, nil
	}
}
