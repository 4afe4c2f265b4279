// The first paper construction ported to the message plane: an Ω-style
// eventual-leader detector from heartbeats with adaptive timeouts — the
// message-passing sibling of internal/antiomega's register-plane detector,
// and the natural probe for mixed-grade networks. Each process alternates
// broadcast rounds (one send per peer) with a receive window, measures each
// peer's silence in its own steps, and suspects a peer whose silence exceeds
// that peer's timeout; hearing from a suspected peer rehabilitates it and
// bumps its timeout (the classic adaptive rule, so finitely many false
// suspicions per eventually-timely link). The leader output is the smallest
// unsuspected process.
//
// The timers are deadlines, not counters: a process keeps its own step
// clock, the clock value at which it last heard from each peer, and the
// earliest expiry over its unsuspected peers. A step looks at the peers only
// once the clock passes that deadline, so the per-step cost does not grow
// with n while every peer is heard from in time.
//
// On a network whose links from some correct process are eventually timely
// (Sync, or PartialSync past GST) and given enough steps, every correct
// process stops suspecting it and the leader outputs stabilize — Ω. On
// all-async matrices stabilization is not guaranteed; the netconv campaigns
// measure exactly that boundary.

package msgnet

import (
	"fmt"
	"math"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// HeartbeatConfig parameterizes the detector.
type HeartbeatConfig struct {
	// N is the system size (2..procset.MaxProcs).
	N int
	// Window is the number of receive steps between broadcast rounds.
	// 0 means 2(N-1): drain capacity for one full round of peers with slack.
	Window int
	// Timeout is the initial silence tolerance, in own steps. 0 means
	// 4(N-1+Window): a few rounds of slack before the first suspicion.
	Timeout int
	// Stamp, when true, stamps each heartbeat payload with the sender's
	// round number (int) instead of nil. Stamped heartbeats give
	// delivery-corruption adversaries something to corrupt and the
	// round-structure tests something to compare, at the cost of boxing
	// allocations once rounds exceed the small-int interning range — the
	// 0 allocs/op steady state is measured with Stamp off.
	Stamp bool
}

// Heartbeat is the harness-side state of one detector instance: it builds
// the per-process machines and exposes their leader outputs between steps.
// Instances are single-run but pool-friendly — a machine's factory and its
// Rearm both reset the process's outputs here, so a pooled runner's Reset
// resets the detector for free.
type Heartbeat struct {
	cfg     HeartbeatConfig
	leaders []procset.ID // leader output per process, indexed by id-1
	rounds  []int        // completed broadcast rounds per process
}

// NewHeartbeat validates cfg and returns a detector instance.
func NewHeartbeat(cfg HeartbeatConfig) (*Heartbeat, error) {
	if cfg.N < 2 || cfg.N > procset.MaxProcs {
		return nil, fmt.Errorf("msgnet: heartbeat needs n in [2,%d], got %d", procset.MaxProcs, cfg.N)
	}
	if cfg.Window == 0 {
		cfg.Window = 2 * (cfg.N - 1)
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("msgnet: heartbeat Window = %d < 1", cfg.Window)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 4 * (cfg.N - 1 + cfg.Window)
	}
	if cfg.Timeout < 1 {
		return nil, fmt.Errorf("msgnet: heartbeat Timeout = %d < 1", cfg.Timeout)
	}
	return &Heartbeat{
		cfg:     cfg,
		leaders: make([]procset.ID, cfg.N),
		rounds:  make([]int, cfg.N),
	}, nil
}

// Machine builds the automaton for process p — the sim.Config.Machine
// factory (the regs argument is unused: the detector touches no registers,
// only the message plane).
func (h *Heartbeat) Machine(p procset.ID, _ sim.Registry) sim.Machine {
	m := &hbMachine{h: h, self: p, n: h.cfg.N, peers: make([]peerTimer, h.cfg.N+1)}
	m.Rearm()
	return m
}

// Rearm implements sim.Rearmer, and is the second half of Machine: every
// timer back to the initial tolerance, nothing suspected, no round begun,
// and the process's leader and round outputs reset.
func (m *hbMachine) Rearm() {
	h := m.h
	*m = hbMachine{h: h, self: m.self, n: m.n, peers: m.peers, deadline: h.cfg.Timeout}
	for q := range m.peers {
		m.peers[q] = peerTimer{timeout: h.cfg.Timeout}
	}
	h.leaders[m.self-1] = 1 // everyone starts trusting the smallest id
	h.rounds[m.self-1] = 0
}

// Leader returns p's current leader output.
func (h *Heartbeat) Leader(p procset.ID) procset.ID { return h.leaders[p-1] }

// Rounds returns the number of broadcast rounds p has completed.
func (h *Heartbeat) Rounds(p procset.ID) int { return h.rounds[p-1] }

// Agree reports whether every process in live outputs the same leader, and
// that leader is itself in live — the Ω stabilization predicate the
// campaigns check (live is the set the schedule kept scheduling).
func (h *Heartbeat) Agree(live procset.Set) (procset.ID, bool) {
	var leader procset.ID
	for q := 1; q <= h.cfg.N; q++ {
		if !live.Contains(procset.ID(q)) {
			continue
		}
		l := h.leaders[q-1]
		if leader == 0 {
			leader = l
		} else if l != leader {
			return 0, false
		}
	}
	if leader == 0 || !live.Contains(leader) {
		return 0, false
	}
	return leader, true
}

// hbMachine is one process's automaton. Phases per round: n-1 sends (peers
// in increasing id order, self skipped), then Window recvs.
type hbMachine struct {
	h    *Heartbeat
	self procset.ID
	n    int

	peer      procset.ID // next peer to heartbeat, 0 when in the recv window
	recvsLeft int
	round     int

	// Timers. q's silence is clock-peers[q].heard; q expires, and becomes
	// suspected, once that exceeds peers[q].timeout. deadline is at most
	// the smallest heard+timeout over unsuspected peers (exactly it after a
	// scan, earlier when a peer was heard from since), and MaxInt when every
	// peer is suspected: until the clock passes it no peer can expire.
	clock     int         // own steps taken since the first
	peers     []peerTimer // indexed by id
	deadline  int         // no unsuspected peer expires at or before this clock
	suspected uint64      // bitmask, bit q-1
	started   bool

	opBuf sim.Op
}

// peerTimer is one peer's timer in a detector process.
type peerTimer struct {
	heard   int // the process's clock when it last heard from the peer
	timeout int // current silence tolerance
}

// NextOp implements sim.Machine: digest the result of the step that just
// executed, advance the timers and the suspicion set, and emit the next
// operation from stable storage. The detector never halts.
func (m *hbMachine) NextOp(prev any) *sim.Op {
	if m.started {
		// One own step elapsed: every peer's silence grows by one, and a
		// silence crossing its timeout turns into a suspicion — which can
		// only happen once the clock passes the deadline.
		m.clock++
		changed := false
		if m.clock > m.deadline {
			changed = m.expire()
		}
		if msg, ok := prev.(*sim.Message); ok {
			q := int(msg.From)
			pt := &m.peers[q]
			pt.heard = m.clock
			if m.suspected&(1<<(q-1)) != 0 {
				// A false suspicion: rehabilitate and grow the tolerance, so
				// each eventually-timely peer is falsely suspected only
				// finitely often. q's new expiry may precede the deadline.
				m.suspected &^= 1 << (q - 1)
				pt.timeout += m.h.cfg.Timeout
				m.deadline = min(m.deadline, m.clock+pt.timeout)
				changed = true
			}
		}
		if changed {
			m.h.leaders[m.self-1] = m.leader()
		}
	} else {
		m.started = true
		m.peer = m.nextPeer(0)
	}
	if m.peer != 0 {
		to := m.peer
		m.peer = m.nextPeer(to)
		if m.peer == 0 {
			m.recvsLeft = m.h.cfg.Window
		}
		var payload any
		if m.h.cfg.Stamp {
			payload = m.round
		}
		m.opBuf = sim.SendOp(to, payload)
		return &m.opBuf
	}
	if m.recvsLeft > 0 {
		m.recvsLeft--
		m.opBuf = sim.RecvOp()
		return &m.opBuf
	}
	// Window drained: start the next broadcast round.
	m.round++
	m.h.rounds[m.self-1] = m.round
	to := m.nextPeer(0)
	m.peer = m.nextPeer(to)
	if m.peer == 0 {
		m.recvsLeft = m.h.cfg.Window
	}
	var payload any
	if m.h.cfg.Stamp {
		payload = m.round
	}
	m.opBuf = sim.SendOp(to, payload)
	return &m.opBuf
}

// expire suspects every unsuspected peer whose silence exceeds its timeout
// and recomputes the deadline over the rest. It reports whether any peer
// became suspected.
func (m *hbMachine) expire() bool {
	changed := false
	m.deadline = math.MaxInt
	for q := 1; q <= m.n; q++ {
		if procset.ID(q) == m.self || m.suspected&(1<<(q-1)) != 0 {
			continue
		}
		if expiry := m.peers[q].heard + m.peers[q].timeout; m.clock > expiry {
			m.suspected |= 1 << (q - 1)
			changed = true
		} else {
			m.deadline = min(m.deadline, expiry)
		}
	}
	return changed
}

// nextPeer returns the smallest peer id greater than after (skipping self),
// or 0 when the round's sends are done.
func (m *hbMachine) nextPeer(after procset.ID) procset.ID {
	for q := after + 1; int(q) <= m.n; q++ {
		if q != m.self {
			return q
		}
	}
	return 0
}

// leader returns the smallest unsuspected process (self is never suspected,
// so the scan always terminates with a valid id).
func (m *hbMachine) leader() procset.ID {
	for q := 1; q <= m.n; q++ {
		if procset.ID(q) == m.self || m.suspected&(1<<(q-1)) == 0 {
			return procset.ID(q)
		}
	}
	return m.self
}
