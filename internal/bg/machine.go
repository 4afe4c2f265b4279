// Direct-dispatch form of the BG simulation: the safe agreement object and
// the simulator loop of simulation.go with their program counters made
// explicit, for sim.Runner's machine mode. The simulator machine composes
// the snapshot sub-automata (snapshot.ScanMachine / UpdateMachine) and the
// safe agreement sub-automata below through the exact operation interleaving
// of Simulation.Algorithm, so both execution modes replay bit-identical
// StepInfo streams and harness state (pinned by machine_test.go). This is
// the hot path of the Theorem 26 reduction experiment.

package bg

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
	"github.com/settimeliness/settimeliness/internal/snapshot"
)

// SafeAgreementMachine is the machine-form handle on a named safe agreement
// object: the counterpart of SafeAgreement, with Propose and Resolve exposed
// as one-shot sub-automata.
type SafeAgreementMachine struct {
	snap     snapshot.MachineObject
	n        int
	proposed bool
	// shared is the runner's BG recycling state; nil on allocate-per-write
	// runners, where proposals are written as plain saEntry values.
	shared *bgShared

	// Reusable call machines: a process runs at most one propose or resolve
	// call on this object at a time, so the hot simulator loop allocates
	// nothing per call.
	propM SAProposeMachine
	resvM SAResolveMachine
}

// NewSafeAgreementMachine creates the handle. It performs no steps and
// interns the same registers as NewSafeAgreement. The snapshot handle is
// embedded by value: the BG simulation creates one of these per simulated
// (thread, round), so construction is kept to a single allocation plus the
// register interning.
func NewSafeAgreementMachine(regs sim.Registry, name string, self procset.ID, n int) *SafeAgreementMachine {
	sa := &SafeAgreementMachine{n: n}
	sa.snap.Init(regs, "sa."+name, self, n)
	return sa
}

// newSafeAgreementMachineShared creates the handle over prebuilt shared
// register refs (the simulator's (thread, round) cache) on a recycled
// runner: no name is built and nothing is interned.
func newSafeAgreementMachineShared(sh *bgShared, self procset.ID, n int, segs []sim.Ref, readOps []sim.Op) *SafeAgreementMachine {
	sa := &SafeAgreementMachine{n: n, shared: sh}
	sa.snap.InitShared(sh.arena, self, n, segs, readOps)
	return sa
}

// Rebind points the handle at a different named object of the same size,
// reusing all buffers and resetting the doorway state. The simulator
// machine recycles one handle per simulated thread as rounds advance.
func (sa *SafeAgreementMachine) Rebind(regs sim.Registry, name string) {
	sa.proposed = false
	sa.snap.Rebind(regs, "sa."+name)
}

// rebindShared is Rebind through prebuilt shared refs: no naming, no
// interning.
func (sa *SafeAgreementMachine) rebindShared(segs []sim.Ref, readOps []sim.Op) {
	sa.proposed = false
	sa.snap.RebindShared(segs, readOps)
}

// Proposed reports whether this process already entered the doorway.
func (sa *SafeAgreementMachine) Proposed() bool { return sa.proposed }

// saProposePhase locates a propose call's pending operation.
type saProposePhase int

const (
	sapEnter   saProposePhase = iota // the unsafe-level publish is running
	sapScan                          // the doorway scan is running
	sapPublish                       // the level-fixing publish is running
)

// SAProposeMachine is one Propose call as a sub-automaton: publish at the
// unsafe level, scan, then fix the proposal or back off.
type SAProposeMachine struct {
	sa    *SafeAgreementMachine
	v     any
	phase saProposePhase
	upd   *snapshot.UpdateMachine
	scan  *snapshot.ScanMachine
}

// NewPropose begins a Propose(v) call on the object's reusable propose
// machine. Start issues the first operation; hasOp == false means the call
// completed without steps (the process had already proposed, matching
// SafeAgreement.Propose's early return). The returned machine is valid
// until the next NewPropose or NewResolve on this object. On a recycled
// runner the call takes ownership of one reference to v if it is a leased
// view, released when the call completes (or immediately on the early
// return).
func (sa *SafeAgreementMachine) NewPropose(v any) *SAProposeMachine {
	p := &sa.propM
	p.sa, p.v, p.phase, p.upd, p.scan = sa, v, sapEnter, nil, nil
	return p
}

// entry builds the level-carrying register value for the proposal: a leased
// saBox (retaining the proposal view) on a recycled runner, the plain
// saEntry otherwise.
func (p *SAProposeMachine) entry(level int) any {
	if sh := p.sa.shared; sh != nil {
		if vb, ok := p.v.(*viewBox); ok {
			return sh.newSA(level, vb)
		}
	}
	return saEntry{Level: level, Val: p.v}
}

// releaseOwned drops the call's creator reference on a leased proposal view.
func (p *SAProposeMachine) releaseOwned() {
	if vb, ok := p.v.(*viewBox); ok {
		vb.Release()
		p.v = nil
	}
}

// Start issues the call's first operation; nil means the call completed
// without steps (the process had already proposed).
func (p *SAProposeMachine) Start() *sim.Op {
	if p.sa.proposed {
		p.releaseOwned()
		return nil
	}
	p.sa.proposed = true
	p.upd = p.sa.snap.NewUpdate(p.entry(saUnsafe))
	return p.upd.Start()
}

// Feed consumes the result of the operation in flight and issues the next
// one; nil completes the call.
func (p *SAProposeMachine) Feed(prev any) *sim.Op {
	switch p.phase {
	case sapEnter:
		if op := p.upd.Feed(prev); op != nil {
			return op
		}
		p.phase = sapScan
		p.scan = p.sa.snap.NewScan()
		return p.scan.Start()
	case sapScan:
		if op := p.scan.Feed(prev); op != nil {
			return op
		}
		view := p.scan.Result()
		level := saSafe
		for q := 1; q <= p.sa.n; q++ {
			if lv, _, ok := saEntryOf(view.Get(procset.ID(q))); ok && lv == saSafe {
				level = saBackedOff
				break
			}
		}
		p.phase = sapPublish
		p.upd = p.sa.snap.NewUpdate(p.entry(level))
		return p.upd.Start()
	case sapPublish:
		op := p.upd.Feed(prev)
		if op == nil {
			// The level-fixing publish executed: every stored copy of the
			// proposal holds its own reference now, so the creator's is done.
			p.releaseOwned()
		}
		return op
	default:
		panic(fmt.Sprintf("bg: invalid propose phase %d", p.phase))
	}
}

// SAResolveMachine is one Resolve call as a sub-automaton: a scan plus the
// local resolution.
type SAResolveMachine struct {
	sa   *SafeAgreementMachine
	scan *snapshot.ScanMachine
	val  any
	ok   bool
}

// NewResolve begins a Resolve call on the object's reusable resolve
// machine, valid until the next NewPropose or NewResolve on this object.
func (sa *SafeAgreementMachine) NewResolve() *SAResolveMachine {
	r := &sa.resvM
	r.sa, r.scan, r.val, r.ok = sa, sa.snap.NewScan(), nil, false
	return r
}

// Start issues the call's first operation.
func (r *SAResolveMachine) Start() *sim.Op { return r.scan.Start() }

// Feed consumes the result of the operation in flight and issues the next
// one; nil completes the call (see Result).
func (r *SAResolveMachine) Feed(prev any) *sim.Op {
	if op := r.scan.Feed(prev); op != nil {
		return op
	}
	view := r.scan.Result()
	choice := 0
	for q := 1; q <= r.sa.n; q++ {
		lv, _, ok := saEntryOf(view.Get(procset.ID(q)))
		if !ok {
			continue
		}
		switch lv {
		case saUnsafe:
			return nil
		case saSafe:
			if choice == 0 {
				choice = q
			}
		}
	}
	if choice != 0 {
		_, val, _ := saEntryOf(view.Get(procset.ID(choice)))
		r.val, r.ok = val, true
	}
	return nil
}

// Result returns the agreed value, if the object resolved. On a recycled
// runner the value is borrowed, not retained: consume it within the machine
// step that completed the resolve (the simulator does — it folds the agreed
// view into local state before returning from Next).
func (r *SAResolveMachine) Result() (any, bool) { return r.val, r.ok }

// subKind says which sub-automaton of the simulator loop owns the operation
// in flight.
type subKind int

const (
	subPublish subKind = iota + 1 // mem.Update of the merged knowledge
	subAbsorb                     // mem.Scan before proposing
	subPropose                    // the safe agreement doorway
	subResolve                    // the safe agreement resolution
)

// simMachine is the machine form of one simulator: the round-robin pass over
// the simulated threads of Simulation.Algorithm with its program counter
// made explicit.
type simMachine struct {
	s    *Simulation
	self procset.ID
	regs sim.Registry
	n    int // simulated threads
	mem  *snapshot.MachineObject
	// shared is the runner-scoped recycling state (payload pools + the
	// (thread, round) register cache); nil on allocate-per-write runners,
	// where the machine publishes plain View copies exactly like Algorithm.
	shared *bgShared
	// Safe agreement handles, one recycled per thread: this simulator only
	// ever works on a thread's current round (rounds advance monotonically
	// and old rounds are never revisited by the same simulator), so each
	// thread's handle is rebound in place as its round moves on.
	sas     []*SafeAgreementMachine // indexed by thread (1-based)
	saRound []int                   // round sas[i] is currently bound to

	know   View
	states []any
	round  []int
	phase  []threadPhase

	i       int  // thread under consideration in the current pass
	allDone bool // running conjunction over the current pass
	started bool
	sub     subKind
	upd     *snapshot.UpdateMachine
	scan    *snapshot.ScanMachine
	prop    *SAProposeMachine
	resv    *SAResolveMachine
}

// ChainedMachine returns the sub-automaton-composed direct-dispatch code of
// simulator p: the original machine port, kept as the equivalence reference
// between the coroutine seed (Algorithm) and the fused production machine
// (Machine). The returned factory value suits sim.Config.Machine for a
// runner of size m.
func (s *Simulation) ChainedMachine(p procset.ID, regs sim.Registry) sim.Machine {
	n := s.proto.Threads()
	m := &simMachine{
		s:       s,
		self:    p,
		regs:    regs,
		n:       n,
		mem:     bindMem(new(snapshot.MachineObject), regs, p, s.m),
		shared:  bgSharedFor(regs, n, s.m),
		sas:     make([]*SafeAgreementMachine, n+1),
		saRound: make([]int, n+1),
		know:    make(View, n+1),
		states:  make([]any, n+1),
		round:   make([]int, n+1),
		phase:   make([]threadPhase, n+1),
		i:       1,
		allDone: true,
	}
	for i := 1; i <= n; i++ {
		m.states[i] = s.proto.Init(i)
		m.round[i] = 1
	}
	return m
}

// bindMem binds o as simulator p's handle on the bg.mem snapshot object
// through the runner's layout cache: the object's registers are interned
// once per runner, not on every Reset.
func bindMem(o *snapshot.MachineObject, regs sim.Registry, p procset.ID, m int) *snapshot.MachineObject {
	segs, readOps := snapshot.LayoutRefs(regs, "bg.mem", m)
	o.InitShared(snapshot.ArenaFor(regs), p, m, segs, readOps)
	return o
}

func (m *simMachine) saFor(i, r int) *SafeAgreementMachine {
	if sh := m.shared; sh != nil {
		// Recycled runner: bind through the shared (thread, round) register
		// cache — only the first simulator to reach a round interns anything.
		switch {
		case m.sas[i] == nil:
			segs, ops := sh.saRefsFor(m.regs, i, r)
			m.sas[i] = newSafeAgreementMachineShared(sh, m.self, m.s.m, segs, ops)
		case m.saRound[i] != r:
			segs, ops := sh.saRefsFor(m.regs, i, r)
			m.sas[i].rebindShared(segs, ops)
		default:
			return m.sas[i]
		}
		m.saRound[i] = r
		return m.sas[i]
	}
	switch {
	case m.sas[i] == nil:
		m.sas[i] = NewSafeAgreementMachine(m.regs, saName(i, r), m.self, m.s.m)
	case m.saRound[i] != r:
		m.sas[i].Rebind(m.regs, saName(i, r))
	default:
		return m.sas[i]
	}
	m.saRound[i] = r
	return m.sas[i]
}

// absorb merges the freshest knowledge per thread from a scanned snapshot of
// all simulators' published views (the machine twin of Algorithm's absorb).
func (m *simMachine) absorb(v snapshot.View) {
	for q := 1; q <= m.s.m; q++ {
		other, ok := asView(v.Get(procset.ID(q)))
		if !ok {
			continue
		}
		for i := 1; i <= m.n; i++ {
			if other[i].Round > m.know[i].Round {
				m.know[i] = other[i]
			}
		}
	}
}

// knowCopy builds the payload publishing m.know: a leased box on a recycled
// runner (the copy the model requires lands in recycled memory), a fresh
// View otherwise.
func (m *simMachine) knowCopy() any {
	if m.shared != nil {
		return m.shared.newView(m.know)
	}
	cp := make(View, len(m.know))
	copy(cp, m.know)
	return cp
}

// Next implements sim.Machine: feed the operation result to the sub-automaton
// in flight, then advance the thread pass until the next operation — or halt
// when a full pass finds every thread decided. Internally operations travel
// as pointers into the sub-automata's stable storage; the single value copy
// the sim.Machine contract requires happens here.
func (m *simMachine) Next(prev any) (sim.Op, bool) {
	if op := m.next(prev); op != nil {
		return *op, true
	}
	return sim.Op{}, false
}

// NextOp implements sim.PtrMachine: the simulator's native form — the
// runner consumes the pointed-to op before the next step, so no copy is
// needed at all.
func (m *simMachine) NextOp(prev any) *sim.Op { return m.next(prev) }

func (m *simMachine) next(prev any) *sim.Op {
	if !m.started {
		m.started = true
		return m.pump()
	}
	switch m.sub {
	case subPublish:
		if op := m.upd.Feed(prev); op != nil {
			return op
		}
		m.sub = subAbsorb
		m.scan = m.mem.NewScan()
		return m.scan.Start()
	case subAbsorb:
		if op := m.scan.Feed(prev); op != nil {
			return op
		}
		m.absorb(m.scan.Result())
		m.prop = m.saFor(m.i, m.round[m.i]).NewPropose(m.knowCopy())
		if op := m.prop.Start(); op != nil {
			m.sub = subPropose
			return op
		}
		m.phase[m.i] = phaseResolve
		return m.startResolve()
	case subPropose:
		if op := m.prop.Feed(prev); op != nil {
			return op
		}
		m.phase[m.i] = phaseResolve
		return m.startResolve()
	case subResolve:
		if op := m.resv.Feed(prev); op != nil {
			return op
		}
		if agreed, ok := m.resv.Result(); ok {
			view, ok := asView(agreed)
			if !ok {
				panic(fmt.Sprintf("bg: agreed value is %T, want a simulated view", agreed))
			}
			m.resolveThread(view)
		}
		// Blocked or resolved either way, the pass moves to the next thread.
		m.i++
		return m.pump()
	default:
		panic(fmt.Sprintf("bg: invalid simulator sub-automaton %d", m.sub))
	}
}

// resolveThread runs the post-agreement local computation for thread m.i:
// fold the agreed view into local knowledge, advance the protocol, record
// the resolution.
func (m *simMachine) resolveThread(view View) {
	i := m.i
	for j := 1; j <= m.n; j++ {
		if view[j].Round > m.know[j].Round {
			m.know[j] = view[j]
		}
	}
	st, decided, decision := m.s.proto.OnView(i, m.round[i], m.states[i], view)
	m.states[i] = st
	m.s.recordResolution(i, m.round[i], decided, decision, m.self)
	if decided {
		m.phase[i] = phaseDone
		return
	}
	m.round[i]++
	if m.shared != nil {
		m.shared.advanceRound(m.self, i, m.round[i])
	}
	m.phase[i] = phaseWrite
}

// startResolve begins the safe agreement resolution for thread m.i.
func (m *simMachine) startResolve() *sim.Op {
	m.resv = m.saFor(m.i, m.round[m.i]).NewResolve()
	m.sub = subResolve
	return m.resv.Start()
}

// pump advances the thread pass over purely local work until a sub-automaton
// issues an operation, or halts the machine when a full pass finds every
// thread decided.
func (m *simMachine) pump() *sim.Op {
	for {
		if m.i > m.n {
			if m.allDone {
				return nil
			}
			m.i, m.allDone = 1, true
		}
		i := m.i
		switch m.phase[i] {
		case phaseDone:
			m.i++
		case phaseWrite:
			m.allDone = false
			wv := m.s.proto.WriteValue(i, m.round[i], m.states[i])
			if m.know[i].Round < m.round[i] {
				m.know[i] = Entry{Round: m.round[i], Val: wv}
			}
			m.upd = m.mem.NewUpdate(m.knowCopy())
			m.sub = subPublish
			return m.upd.Start()
		case phaseResolve:
			m.allDone = false
			return m.startResolve()
		default:
			panic(fmt.Sprintf("bg: invalid thread phase %d", m.phase[i]))
		}
	}
}
