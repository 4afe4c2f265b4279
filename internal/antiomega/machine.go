// The direct-dispatch form of Figure 2: the same automaton as Instance with
// its program counter made explicit, so sim.Runner can step it with plain
// function calls instead of coroutine handoffs. This is the hot path of
// every detector campaign.

package antiomega

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// mPhase locates the machine inside one Figure 2 iteration.
type mPhase int

const (
	// phaseCounters: the collect of Counter[ai][q], row-major, is in flight
	// (lines 2–3).
	phaseCounters mPhase = iota
	// phaseHeartbeatWrite: the own-heartbeat write is in flight (lines 6–7).
	phaseHeartbeatWrite
	// phaseHeartbeats: reading Heartbeat[q] (lines 8–13).
	phaseHeartbeats
	// phaseExpiry: writing Counter[ai][self] for expired sets (lines 14–19).
	phaseExpiry
)

// MachineInstance is the direct-dispatch port of Instance. It issues
// op-for-op the operation stream of Instance.Iterate in an endless loop and
// runs the same local computations (the shared state methods) at the same
// points of that stream, so a machine-mode detector replays a coroutine
// detector's StepInfo stream bit for bit — machine_test.go pins this.
//
// The machine never halts: like the coroutine form, crashes are expressed
// by the schedule ceasing to contain the process.
type MachineInstance struct {
	state
	// machineLayout is a copy of the runner's shared layout (slice headers
	// only), so the hot path indexes the tables without a pointer chase.
	machineLayout

	primed bool // whether the first operation has been issued
	phase  mPhase
	ai, q  int // cursors for the heartbeat and expiry phases

	// onIterate, if non-nil, runs after each completed iteration — inside
	// the Next call that consumes the iteration's final operation, i.e. at
	// the exact point the coroutine Detector publishes. The Detector wires
	// its publication here, and keeps in published the last fdOutput it
	// reported (its change filter), which Rearm clears with the rest.
	onIterate func(*MachineInstance)
	published procset.Set

	// collect is the counter phase's collect request and collected the
	// buffer its values land in, built once per machine and kept by Rearm:
	// every collect overwrites the whole buffer before the machine reads it.
	collect   sim.Op
	collected []any

	// opBuf is the stable storage behind NextOp's non-table operations.
	opBuf sim.Op
}

// machineLayout is the detector's machine layout for one (n, k): the Πkn
// enumeration, the interned registers, and the prebuilt operations, shared
// by every process's MachineInstance and kept in the runner's layout cache
// across Reset. It holds |Πkn|·n register names, and the Theorem 24
// agreement rebuilds one detector per process on every pooled Reset.
type machineLayout struct {
	sets        []procset.Set // Πkn in canonical order
	hbRefs      []sim.Ref
	counterRefs [][]sim.Ref
	hbReadOps   []sim.Op // ReadOp per heartbeat, indexed q-1

	// counters lists every Counter[A, q], row-major: the counter phase —
	// ~n·|Πkn| of every iteration's steps — is one collect of them.
	counters []sim.Ref

	// boxes holds the boxed register values the machines write.
	boxes *intBoxes
}

// intBoxes is a runner's table of boxed ints, filled lazily and only
// grown: heartbeats and accusation counters climb past the runtime's
// preboxed small ints within a few hundred iterations, and boxing each
// write would allocate once per iteration per process. Through the table
// each value is boxed once per runner, whichever process writes it first.
// The values stay plain ints, so streams and goldens do not change.
type intBoxes struct {
	chunks [][]any // value v sits at chunks[v/boxChunk][v%boxChunk]
}

// boxChunk is the table's chunk size: growing the table appends a chunk
// and copies no boxed value. boxMax bounds the table (1 MiB of chunks):
// the values of the longest runs stay far below it, while a Byzantine
// director's corrupted counters (StrategyFlip doubles a value on every
// write) can run to any int, negative ones included; those are boxed
// per write.
const (
	boxChunk = 256
	boxMax   = 1 << 16
)

// box returns v boxed, from the table when 0 ≤ v < boxMax.
func (b *intBoxes) box(v int) any {
	if uint(v) >= boxMax {
		return v
	}
	c, i := uint(v)/boxChunk, uint(v)%boxChunk
	for uint(len(b.chunks)) <= c {
		b.chunks = append(b.chunks, make([]any, boxChunk))
	}
	x := b.chunks[c][i]
	if x == nil {
		x = v
		b.chunks[c][i] = x
	}
	return x
}

// layoutKey keys a machineLayout in the runner's cache. The registers and
// tables depend on n and k only.
type layoutKey struct{ n, k int }

func newMachineLayout(cfg Config, regs sim.Registry) *machineLayout {
	l := &machineLayout{sets: procset.KSubsets(cfg.N, cfg.K), boxes: new(intBoxes)}
	l.hbRefs, l.counterRefs = makeRefs(cfg, l.sets, regs.Reg)
	n := cfg.N
	l.hbReadOps = make([]sim.Op, n)
	for q := 1; q <= n; q++ {
		l.hbReadOps[q-1] = sim.ReadOp(l.hbRefs[q])
	}
	l.counters = make([]sim.Ref, 0, len(l.sets)*n)
	for ai := range l.sets {
		l.counters = append(l.counters, l.counterRefs[ai][1:]...)
	}
	return l
}

// NewMachineInstance builds the machine for one process. Its registers and
// op tables come from the runner's layout cache, interned on first use. It
// performs no steps.
func NewMachineInstance(cfg Config, self procset.ID, regs sim.Registry) (*MachineInstance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self < 1 || int(self) > cfg.N {
		return nil, fmt.Errorf("antiomega: self = %v outside Π%d", self, cfg.N)
	}
	l := sim.Layout(regs, layoutKey{cfg.N, cfg.K}, func() *machineLayout {
		return newMachineLayout(cfg, regs)
	})
	m := &MachineInstance{state: newStateOver(cfg, self, l.sets), machineLayout: *l, collected: make([]any, len(l.counters))}
	m.collect = sim.CollectOp(l.counters, m.collected)
	return m, nil
}

// Rearm implements sim.Rearmer: the machine returns to the state
// NewMachineInstance built it in, before its first iteration, reusing its
// arrays; the Detector's publication filter is cleared too. onIterate is
// kept, and so are the collect request and its buffer.
func (m *MachineInstance) Rearm() {
	m.state.rearm()
	m.primed, m.phase, m.ai, m.q = false, phaseCounters, 0, 0
	m.published = procset.EmptySet
	m.opBuf = sim.Op{}
}

// Next implements sim.Machine; the runner prefers the pointer form below.
func (m *MachineInstance) Next(prev any) (sim.Op, bool) {
	return *m.NextOp(prev), true // the detector never halts
}

// NextOp implements sim.PtrMachine, the detector's native form: the counter
// phase — the dominant one of every iteration — is a single collect
// request, so the machine runs once per iteration there instead of once per
// read; the remaining transitions come from the heartbeat table or land in
// opBuf. No Op is copied anywhere on the hot path.
func (m *MachineInstance) NextOp(prev any) *sim.Op {
	if !m.primed {
		// First activation: issue iteration one's counter collect.
		m.primed = true
		return m.BeginIterationOp()
	}
	if op := m.FeedIterationOp(prev); op != nil {
		return op
	}
	if m.onIterate != nil {
		m.onIterate(m)
	}
	return m.BeginIterationOp()
}

// BeginIterationOp starts one Figure 2 iteration as a composable
// sub-automaton and returns its first operation (the counter collect; see
// sim.PtrMachine for the aliasing contract). Together with FeedIterationOp
// it is the machine-form counterpart of Instance.Iterate: composite automata
// (the kset agreement machine) interleave iterations with their own
// operations exactly as coroutine code interleaves Iterate calls with other
// sub-protocols of the same process.
func (m *MachineInstance) BeginIterationOp() *sim.Op {
	m.phase = phaseCounters
	return &m.collect
}

// FeedIterationOp consumes the result of the iteration operation in flight
// and returns the iteration's next operation, or nil when the iteration has
// completed — prev was the result of its final operation and the closing
// local computation (including the iteration counter) has run. Callers then
// issue their own operations or call BeginIterationOp again; the
// per-iteration operation stream is op-for-op that of Instance.Iterate
// either way.
func (m *MachineInstance) FeedIterationOp(prev any) *sim.Op {
	n := m.cfg.N
	switch m.phase {
	case phaseCounters:
		// All counters collected: lines 4–5 locally, then lines 6–7.
		m.foldCollect()
		m.myHb++
		m.phase = phaseHeartbeatWrite
		m.opBuf = sim.WriteOp(m.hbRefs[m.self], m.boxes.box(m.myHb))
		return &m.opBuf
	case phaseHeartbeatWrite:
		m.phase, m.q = phaseHeartbeats, 1
		return &m.hbReadOps[0]
	case phaseHeartbeats:
		m.noteHeartbeat(m.q, asInt(prev))
		if m.q < n {
			m.q++
			return &m.hbReadOps[m.q-1]
		}
		m.phase, m.ai = phaseExpiry, -1
		return m.nextExpiry()
	case phaseExpiry:
		return m.nextExpiry()
	default:
		panic(fmt.Sprintf("antiomega: invalid machine phase %d", m.phase))
	}
}

// nextExpiry scans lines 14–19 from the set after the one whose accusation
// write just landed, returning the next expiry write — or, when every timer
// has been ticked, closing the iteration (nil).
func (m *MachineInstance) nextExpiry() *sim.Op {
	for ai := m.ai + 1; ai < len(m.subsets); ai++ {
		if m.tickTimer(ai) {
			m.ai = ai
			m.opBuf = sim.WriteOp(m.counterRefs[ai][m.self], m.boxes.box(m.cntRow(ai)[m.self]+1))
			return &m.opBuf
		}
	}
	m.iterations++
	return nil
}

// foldCollect runs lines 4–5 on a finished counter collect, incrementally:
// it stores the collected values row by row and re-derives the accusation
// of only the rows whose values changed — a row's accusation depends on
// that row alone, and only rows hit by an accusation write since the last
// collect can change — before picking the winner over all rows. The
// accusations it keeps are exactly state.chooseWinner's: every row starts
// at zero, and so does its accusation.
func (m *MachineInstance) foldCollect() {
	vals := m.collected
	n, stride := m.cfg.N, m.cfg.N+1
	for ai := range m.subsets {
		row := m.cnt[ai*stride+1 : ai*stride+stride]
		changed := false
		for q, v := range vals[ai*n : ai*n+n] {
			if c := asInt(v); c != row[q] {
				row[q] = c
				changed = true
			}
		}
		if changed {
			m.accusation[ai] = m.aggregate(m.cntRow(ai))
		}
	}
	m.pickWinner()
}
