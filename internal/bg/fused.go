// Direct-dispatch form of the BG simulation, for sim.Runner's machine mode:
// the simulator loop of simulation.go (Simulation.Algorithm, the coroutine
// reference) with its program counter made explicit. The hot path of the
// Theorem 26 reduction experiment.
//
// The whole simulator is ONE flat automaton: a single state word says which
// logical call is in flight (the knowledge publish, the absorb scan, the
// three safe-agreement legs, the resolve scan), and every in-flight call is
// a snapshot.FusedCall, so a step is one switch dispatch plus one Feed call.
// The safe agreement object dissolves into the simulator: its doorway
// discipline (publish unsafe, scan, fix the level or back off) and its
// resolution rule (smallest-id safe proposal, blocked while any proposal is
// unsafe) become plain code in the state switch, operating on the registers
// of SafeAgreement through the runner's (thread, round) cache. Operation
// streams and harness state are bit-identical to Algorithm's, which
// machine_test.go pins per step.

package bg

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
	"github.com/settimeliness/settimeliness/internal/snapshot"
)

// fusedState says which logical call of the simulator pass is in flight.
type fusedState int32

const (
	fsPublish fusedState = iota + 1 // mem update of the merged knowledge
	fsAbsorb                        // mem scan before proposing
	fsEnter                         // safe agreement: unsafe-level publish
	fsDoorway                       // safe agreement: the doorway scan
	fsFix                           // safe agreement: level-fixing publish
	fsResolve                       // safe agreement: the resolve scan
)

// fusedSA is a safe agreement object dissolved into the fused simulator:
// just its snapshot handle and doorway flag. The propose/resolve control
// flow lives in fusedSim's state switch.
type fusedSA struct {
	snap     snapshot.MachineObject
	proposed bool
	bound    bool
}

// fusedSim is the fused machine form of one simulator.
type fusedSim struct {
	s    *Simulation
	self procset.ID
	regs sim.Registry
	n    int // simulated threads
	// mem is the handle on the bg.mem snapshot object.
	mem snapshot.MachineObject
	// shared is the runner-scoped recycling state (payload pools + the
	// (thread, round) register cache); nil on allocate-per-write runners,
	// where the machine publishes plain View copies exactly like Algorithm.
	shared *bgShared
	// One safe agreement handle per thread, rebound in place as the thread's
	// round advances (rounds are processed strictly in order). Each handle
	// carries a reusable call and its collect buffers, which Rearm keeps.
	sas     []fusedSA // indexed by thread (1-based)
	saRound []int

	know   View
	states []any
	round  []int
	phase  []threadPhase

	i       int
	allDone bool
	started bool
	st      fusedState
	call    *snapshot.FusedCall
	sa      *fusedSA // the handle behind an in-flight safe-agreement call
	propV   any      // the propose payload, for the creator-reference release
}

// Machine returns the direct-dispatch code of simulator p, the production
// form of the simulator. The returned factory value suits
// sim.Config.Machine for a runner of size m; Algorithm is the equivalence
// reference.
func (s *Simulation) Machine(p procset.ID, regs sim.Registry) sim.Machine {
	n := s.proto.Threads()
	m := &fusedSim{
		s:       s,
		self:    p,
		regs:    regs,
		n:       n,
		shared:  bgSharedFor(regs, n, s.m),
		sas:     make([]fusedSA, n+1),
		saRound: make([]int, n+1),
		know:    make(View, n+1),
		states:  make([]any, n+1),
		round:   make([]int, n+1),
		phase:   make([]threadPhase, n+1),
	}
	m.Rearm()
	return m
}

// Rearm implements sim.Rearmer, and is the second half of Machine: it binds
// the bg.mem handle again (Runner.Reset has just reset the arena it
// leases from), unbinds every safe agreement handle, and sets the thread
// pass back to its start. The handles, their calls and every slice are
// reused.
func (m *fusedSim) Rearm() {
	bindMem(&m.mem, m.regs, m.self, m.s.m)
	for i := range m.sas {
		m.sas[i].proposed, m.sas[i].bound = false, false
	}
	clear(m.saRound)
	clear(m.know)
	clear(m.phase)
	for i := 1; i <= m.n; i++ {
		m.states[i] = m.s.proto.Init(i)
		m.round[i] = 1
	}
	m.i, m.allDone, m.started = 1, true, false
	m.st, m.call, m.sa, m.propV = 0, nil, nil, nil
}

// bindMem binds o as simulator p's handle on the bg.mem snapshot object
// through the runner's layout cache: the object's registers are interned
// once per runner.
func bindMem(o *snapshot.MachineObject, regs sim.Registry, p procset.ID, m int) {
	segs, readOps := snapshot.LayoutRefs(regs, "bg.mem", m)
	o.InitShared(snapshot.ArenaFor(regs), p, m, segs, readOps)
}

// saFor returns thread i's handle bound to round r: through the shared
// (thread, round) register cache on a recycled runner, so only the first
// simulator to reach a round interns anything; by name otherwise.
func (m *fusedSim) saFor(i, r int) *fusedSA {
	sa := &m.sas[i]
	if sh := m.shared; sh != nil {
		switch {
		case !sa.bound:
			segs, ops := sh.saRefsFor(m.regs, i, r)
			sa.snap.InitShared(sh.arena, m.self, m.s.m, segs, ops)
			sa.bound = true
		case m.saRound[i] != r:
			segs, ops := sh.saRefsFor(m.regs, i, r)
			sa.proposed = false
			sa.snap.RebindShared(segs, ops)
		default:
			return sa
		}
		m.saRound[i] = r
		return sa
	}
	switch {
	case !sa.bound:
		sa.snap.Init(m.regs, "sa."+saName(i, r), m.self, m.s.m)
		sa.bound = true
	case m.saRound[i] != r:
		sa.proposed = false
		sa.snap.Rebind(m.regs, "sa."+saName(i, r))
	default:
		return sa
	}
	m.saRound[i] = r
	return sa
}

// saEntry builds the level-carrying register value for the pending proposal
// payload: a leased saBox (retaining the proposal view) on a recycled
// runner, the plain saEntry otherwise.
func (m *fusedSim) saEntry(level int) any {
	if sh := m.shared; sh != nil {
		if vb, ok := m.propV.(*viewBox); ok {
			return sh.newSA(level, vb)
		}
	}
	return saEntry{Level: level, Val: m.propV}
}

// releaseProp drops the creator reference on a leased proposal payload.
func (m *fusedSim) releaseProp() {
	if vb, ok := m.propV.(*viewBox); ok {
		vb.Release()
	}
	m.propV = nil
}

// absorb merges the freshest knowledge per thread from a scanned snapshot of
// all simulators' published views (Algorithm's absorb).
func (m *fusedSim) absorb(v snapshot.View) {
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
func (m *fusedSim) knowCopy() any {
	if m.shared != nil {
		return m.shared.newView(m.know)
	}
	cp := make(View, len(m.know))
	copy(cp, m.know)
	return cp
}

// Next implements sim.Machine.
func (m *fusedSim) Next(prev any) (sim.Op, bool) {
	if op := m.next(prev); op != nil {
		return *op, true
	}
	return sim.Op{}, false
}

// NextOp implements sim.PtrMachine, the runner's preferred entry point.
func (m *fusedSim) NextOp(prev any) *sim.Op { return m.next(prev) }

// next is the whole simulator as one flat automaton: feed the call in
// flight, and when it completes run the local computation that separates it
// from the next call.
func (m *fusedSim) next(prev any) *sim.Op {
	if !m.started {
		m.started = true
		return m.pump()
	}
	if op := m.call.Feed(prev); op != nil {
		return op
	}
	switch m.st {
	case fsPublish:
		// Knowledge published; scan everyone's views before proposing.
		m.st = fsAbsorb
		m.call = m.mem.NewFusedScan()
		return m.call.Start()
	case fsAbsorb:
		m.absorb(m.call.Result())
		sa := m.saFor(m.i, m.round[m.i])
		m.propV = m.knowCopy()
		if sa.proposed {
			// Already through the doorway (SafeAgreement.Propose's early
			// return): drop the payload and go straight to resolution.
			m.releaseProp()
			m.phase[m.i] = phaseResolve
			return m.startResolve()
		}
		sa.proposed = true
		m.sa = sa
		m.st = fsEnter
		m.call = sa.snap.NewFusedUpdate(m.saEntry(saUnsafe))
		return m.call.Start()
	case fsEnter:
		// Unsafe-level publish done; run the doorway scan.
		m.st = fsDoorway
		m.call = m.sa.snap.NewFusedScan()
		return m.call.Start()
	case fsDoorway:
		// Fix the proposal level: back off if anyone is already safe.
		view := m.call.Result()
		level := saSafe
		for q := 1; q <= m.s.m; q++ {
			if lv, _, ok := saEntryOf(view.Get(procset.ID(q))); ok && lv == saSafe {
				level = saBackedOff
				break
			}
		}
		m.st = fsFix
		m.call = m.sa.snap.NewFusedUpdate(m.saEntry(level))
		return m.call.Start()
	case fsFix:
		// Level fixed: every stored copy of the proposal holds its own
		// reference now, so the creator's is done.
		m.releaseProp()
		m.phase[m.i] = phaseResolve
		return m.startResolve()
	case fsResolve:
		view := m.call.Result()
		choice := 0
		resolved := true
		for q := 1; q <= m.s.m; q++ {
			lv, _, ok := saEntryOf(view.Get(procset.ID(q)))
			if !ok {
				continue
			}
			if lv == saUnsafe {
				// Someone is inside the doorway: blocked for now; the pass
				// moves on and retries this thread later.
				resolved = false
				break
			}
			if lv == saSafe && choice == 0 {
				choice = q
			}
		}
		if resolved && choice != 0 {
			_, val, _ := saEntryOf(view.Get(procset.ID(choice)))
			agreed, ok := asView(val)
			if !ok {
				panic(fmt.Sprintf("bg: agreed value is %T, want a simulated view", val))
			}
			m.resolveThread(agreed)
		}
		m.i++
		return m.pump()
	default:
		panic(fmt.Sprintf("bg: invalid fused simulator state %d", m.st))
	}
}

// resolveThread folds the agreed view into local knowledge, advances the
// protocol, and records the resolution.
func (m *fusedSim) resolveThread(view View) {
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

// startResolve begins the resolve scan for thread m.i.
func (m *fusedSim) startResolve() *sim.Op {
	sa := m.saFor(m.i, m.round[m.i])
	m.sa = sa
	m.st = fsResolve
	m.call = sa.snap.NewFusedScan()
	return m.call.Start()
}

// pump advances the thread pass over purely local work until a call issues
// an operation, or halts the machine when a full pass finds every thread
// decided.
func (m *fusedSim) pump() *sim.Op {
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
			m.st = fsPublish
			m.call = m.mem.NewFusedUpdate(m.knowCopy())
			return m.call.Start()
		case phaseResolve:
			m.allDone = false
			return m.startResolve()
		default:
			panic(fmt.Sprintf("bg: invalid thread phase %d", m.phase[i]))
		}
	}
}
