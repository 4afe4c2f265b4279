package msgnet

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// refHeartbeat is the reference form of Heartbeat: the detector with one
// silence counter per peer, each incremented on every own step and checked
// against its timeout. It is the form the golden digests were frozen from;
// FuzzHeartbeat steps it in lockstep with the deadline timers.
type refHeartbeat struct {
	cfg     HeartbeatConfig
	leaders []procset.ID
	rounds  []int
}

// newRefHeartbeat returns a reference detector with hb's resolved config.
func newRefHeartbeat(hb *Heartbeat) *refHeartbeat {
	return &refHeartbeat{cfg: hb.cfg, leaders: make([]procset.ID, hb.cfg.N), rounds: make([]int, hb.cfg.N)}
}

func (h *refHeartbeat) Machine(p procset.ID, _ sim.Registry) sim.Machine {
	m := &refHBMachine{h: h, self: p, n: h.cfg.N}
	m.silence = make([]int, h.cfg.N+1)
	m.timeout = make([]int, h.cfg.N+1)
	for q := 1; q <= h.cfg.N; q++ {
		m.timeout[q] = h.cfg.Timeout
	}
	h.leaders[p-1] = 1
	h.rounds[p-1] = 0
	return m
}

type refHBMachine struct {
	h    *refHeartbeat
	self procset.ID
	n    int

	peer      procset.ID
	recvsLeft int
	round     int

	silence   []int
	timeout   []int
	suspected uint64
	started   bool
	op        sim.Op
}

func (m *refHBMachine) NextOp(prev any) *sim.Op {
	if m.started {
		changed := false
		for q := 1; q <= m.n; q++ {
			if procset.ID(q) == m.self {
				continue
			}
			m.silence[q]++
			if m.silence[q] > m.timeout[q] && m.suspected&(1<<(q-1)) == 0 {
				m.suspected |= 1 << (q - 1)
				changed = true
			}
		}
		if msg, ok := prev.(*sim.Message); ok {
			q := int(msg.From)
			m.silence[q] = 0
			if m.suspected&(1<<(q-1)) != 0 {
				m.suspected &^= 1 << (q - 1)
				m.timeout[q] += m.h.cfg.Timeout
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
		m.op = sim.SendOp(to, payload)
		return &m.op
	}
	if m.recvsLeft > 0 {
		m.recvsLeft--
		m.op = sim.RecvOp()
		return &m.op
	}
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
	m.op = sim.SendOp(to, payload)
	return &m.op
}

func (m *refHBMachine) nextPeer(after procset.ID) procset.ID {
	for q := after + 1; int(q) <= m.n; q++ {
		if q != m.self {
			return q
		}
	}
	return 0
}

func (m *refHBMachine) leader() procset.ID {
	for q := 1; q <= m.n; q++ {
		if procset.ID(q) == m.self || m.suspected&(1<<(q-1)) == 0 {
			return procset.ID(q)
		}
	}
	return m.self
}

// fuzzSchedule expands schedule bytes into steps steps over Π_n, cycling
// through the bytes; after step crashAt, process crashed (0 for none) is
// never scheduled — its turns go to the next live id.
func fuzzSchedule(n, steps int, data []byte, crashed procset.ID, crashAt int) []procset.ID {
	s := make([]procset.ID, steps)
	for i := range s {
		p := procset.ID(i%n + 1)
		if len(data) > 0 {
			p = procset.ID(int(data[i%len(data)])%n + 1)
		}
		if p == crashed && i >= crashAt {
			p = p%procset.ID(n) + 1
		}
		s[i] = p
	}
	return s
}

// FuzzHeartbeat steps the deadline-timer detector and refHeartbeat on twin
// runners over the same matrix, delay seed and schedule, and requires the
// same step (kind, peer, payload) and the same Leader and Rounds for every
// process after every step. Its seed corpus is in testdata/fuzz/FuzzHeartbeat.
func FuzzHeartbeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, window uint8, timeout uint16, stamp bool, matrix, crash uint8, crashAt uint16, seed int64, data []byte) {
		size := int(n)%7 + 2
		names := MatrixNames()
		name := names[int(matrix)%len(names)]
		if name == MatrixMixed && size < 3 {
			size = 3
		}
		const steps = 4096
		hb, err := NewHeartbeat(HeartbeatConfig{N: size, Window: int(window) % 9, Timeout: int(timeout) % 64, Stamp: stamp})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHeartbeat(hb)
		def, links, err := BuildMatrix(name, size, 1+int(seed&3), steps/4)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(m func(procset.ID, sim.Registry) sim.Machine) *sim.Runner {
			net, err := New(Config{N: size, Default: def, Links: links, Seed: seed, Wild: 1 + int(window)%32})
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewRunner(sim.Config{N: size, Network: net, Machine: m})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			return r
		}
		got, want := mk(hb.Machine), mk(ref.Machine)
		crashed := procset.ID(0)
		if crash != 0 {
			crashed = procset.ID(int(crash)%size + 1)
		}
		for i, p := range fuzzSchedule(size, steps, data, crashed, int(crashAt)%steps) {
			g, w := got.Step(p), want.Step(p)
			if g != w {
				t.Fatalf("step %d: deadline timers %+v, reference %+v", i, g, w)
			}
			for q := procset.ID(1); int(q) <= size; q++ {
				if hb.Leader(q) != ref.leaders[q-1] || hb.Rounds(q) != ref.rounds[q-1] {
					t.Fatalf("step %d (p%d): process %v has leader %v round %d, reference leader %v round %d",
						i, p, q, hb.Leader(q), hb.Rounds(q), ref.leaders[q-1], ref.rounds[q-1])
				}
			}
		}
	})
}

// byteReader hands out fuzz bytes one at a time, zeros once they run out.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// spec decodes one LinkSpec.
func (r *byteReader) spec() LinkSpec {
	return LinkSpec{Grade: Grade(r.next() % 3), Delta: 1 + r.next()%8, GST: 2 * r.next()}
}

// link decodes one Link: a fixed spec, or two to four phases.
func (r *byteReader) link() Link {
	if r.next()%3 != 2 {
		return Link{Spec: r.spec()}
	}
	phases := make([]Phase, 2+r.next()%3)
	for i := range phases {
		if i > 0 {
			phases[i].From = phases[i-1].From + 1 + 4*r.next()
		}
		phases[i].Spec = r.spec()
	}
	return Link{Phases: phases}
}

// specAt is the spec a decoded link gives a message sent at step.
func specAt(l Link, step int) LinkSpec {
	if len(l.Phases) == 0 {
		return l.Spec
	}
	spec := l.Phases[0].Spec
	for _, ph := range l.Phases {
		if ph.From <= step {
			spec = ph.Spec
		}
	}
	return spec
}

// linkBound is the latest step a grade lets a message sent at step arrive,
// and whether it may be lost instead.
func linkBound(spec LinkSpec, step, wild int) (latest int, lossy bool) {
	switch spec.Grade {
	case Sync:
		return step + spec.Delta, false
	case PartialSync:
		if step >= spec.GST {
			return step + spec.Delta, false
		}
		return min(spec.GST+spec.Delta, step+wild), true
	default:
		return step + wild, true
	}
}

// byteDirector re-times and drops messages from fuzz bytes, one byte per
// send picked by sequence number, so a replay after Reset decides the same.
// Its ready steps stray one step outside the window on either side to
// exercise the clamp. It checks the window Net offers against linkBound.
type byteDirector struct {
	t     *testing.T
	data  []byte
	spec  func(from, to procset.ID, step int) LinkSpec
	wild  int
	ready map[uint64]int // wanted ready step, clamped, per undropped seq
}

func (d *byteDirector) OnSend(env Envelope, minReady, maxReady int, canDrop bool) (int, bool) {
	latest, lossy := linkBound(d.spec(env.From, env.To, env.SentStep), env.SentStep, d.wild)
	if minReady != env.SentStep+1 || maxReady != latest || canDrop != lossy {
		d.t.Fatalf("seq %d sent at %d: window [%d,%d] drop %v, want [%d,%d] drop %v",
			env.Seq, env.SentStep, minReady, maxReady, canDrop, env.SentStep+1, latest, lossy)
	}
	b := int(d.data[int(env.Seq)%len(d.data)])
	drop := b&0xc0 == 0xc0
	ready := minReady - 1 + b%(maxReady-minReady+3)
	if !drop || !canDrop {
		d.ready[env.Seq] = min(max(ready, minReady), maxReady)
	}
	return ready, drop
}

// FuzzLinkBounds drives Net.Send and Net.Recv directly over a decoded link
// matrix (specs, phases, Wild, delay seed, an optional byte director) with
// every recipient draining its queue at every step, and checks each
// grade's contract: a delivery lands by the grade's bound (Sync ≤ Δ;
// PartialSync ≤ Δ after GST and ≤ min(GST+Δ, sent+Wild) before it;
// Async ≤ Wild), never before its ready step, and each recipient gets its
// messages in (ready, seq) order; only lossy regimes drop; at the end
// nothing overdue is left in flight and Sent = Delivered + Dropped +
// InFlight. Two runs after a Reset that cut a third short must deliver
// the same. Its seed corpus is
// in testdata/fuzz/FuzzLinkBounds.
func FuzzLinkBounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, wild uint8, seed int64, direct bool, specs, data []byte) {
		size := int(n)%5 + 2
		w := 1 + int(wild)%64
		r := byteReader(specs)
		cfg := Config{N: size, Default: r.link(), Links: map[LinkKey]Link{}, Seed: seed, Wild: w}
		for from := procset.ID(1); int(from) <= size; from++ {
			for to := procset.ID(1); int(to) <= size; to++ {
				if from != to && r.next()%4 == 3 {
					cfg.Links[LinkKey{from, to}] = r.link()
				}
			}
		}
		spec := func(from, to procset.ID, step int) LinkSpec {
			l, ok := cfg.Links[LinkKey{from, to}]
			if !ok {
				l = cfg.Default
			}
			return specAt(l, step)
		}
		var dir *byteDirector
		var readyAt map[uint64]int // the director's clamped ready steps; nil without one
		if direct && len(data) > 0 {
			readyAt = map[uint64]int{}
			dir = &byteDirector{t: t, data: data, spec: spec, wild: w, ready: readyAt}
			cfg.Director = dir
		}
		net, err := New(cfg)
		if err != nil {
			t.Skip(err) // an invalid decoded matrix: New's validation is tested elsewhere
		}
		const steps = 1024
		type sent struct {
			from, to procset.ID
			step     int
		}
		type got struct {
			to        procset.ID
			seq       uint64
			delivered int
		}
		run := func(steps, rotate int) []got {
			var msgs []sent
			var log []got
			delivered := map[uint64]bool{}
			last := make([]got, size+1) // per recipient: the last delivery
			for step := 0; step < steps; step++ {
				for k := 0; k < 2 && len(data) > 0; k++ {
					b := int(data[(2*step+k)%len(data)])
					if b&1 == 0 {
						continue
					}
					from := procset.ID(1 + (b>>1)%size)
					to := procset.ID(1 + (b>>4+rotate)%size)
					if to == from {
						to = to%procset.ID(size) + 1
					}
					net.Send(step, from, to, step)
					msgs = append(msgs, sent{from, to, step})
				}
				for to := procset.ID(1); int(to) <= size; to++ {
					for m := net.Recv(step, to); m != nil; m = net.Recv(step, to) {
						if m.Seq >= uint64(len(msgs)) || delivered[m.Seq] {
							t.Fatalf("step %d: p%d got unknown or repeated seq %d", step, to, m.Seq)
						}
						delivered[m.Seq] = true
						s := msgs[m.Seq]
						if m.From != s.from || to != s.to || m.SentStep != s.step || m.Payload != any(s.step) {
							t.Fatalf("step %d: p%d got %+v, sent %+v", step, to, *m, s)
						}
						if latest, _ := linkBound(spec(s.from, s.to, s.step), s.step, w); step > latest {
							t.Fatalf("seq %d %v→%v sent at %d delivered at %d, bound %d (%v)",
								m.Seq, s.from, s.to, s.step, step, latest, spec(s.from, s.to, s.step))
						}
						// Draining every step delivers at the ready step exactly;
						// without a director only its lower bound is known.
						if dir != nil && step != readyAt[m.Seq] || step <= s.step {
							t.Fatalf("seq %d sent at %d delivered at %d, ready %d", m.Seq, s.step, step, readyAt[m.Seq])
						}
						if l := last[to]; l.to != 0 && step == l.delivered && m.Seq < l.seq {
							t.Fatalf("p%d: seq %d delivered at %d after seq %d at %d", to, m.Seq, step, l.seq, l.delivered)
						}
						last[to] = got{to, m.Seq, step}
						log = append(log, last[to])
					}
				}
			}
			st := net.Stats()
			dropped := int64(0)
			for seq, s := range msgs {
				if _, kept := readyAt[uint64(seq)]; dir != nil && !kept {
					dropped++
					if delivered[uint64(seq)] {
						t.Fatalf("dropped seq %d was delivered", seq)
					}
					continue
				}
				if latest, _ := linkBound(spec(s.from, s.to, s.step), s.step, w); !delivered[uint64(seq)] && latest < steps {
					t.Fatalf("seq %d sent at %d still in flight after step %d, bound %d", seq, s.step, steps-1, latest)
				}
			}
			want := NetStats{Sent: int64(len(msgs)), Delivered: int64(len(log)), Dropped: dropped}
			want.InFlight = want.Sent - want.Delivered - want.Dropped
			if st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
			return log
		}
		// A cut-short run to other recipients first, so that Reset meets
		// messages in flight that the next run does not send again.
		run(1+int(uint64(seed)%steps), 1)
		net.Reset()
		clear(readyAt)
		first := run(steps, 0)
		net.Reset()
		clear(readyAt)
		second := run(steps, 0)
		if len(first) != len(second) {
			t.Fatalf("replay after Reset delivered %d messages, first run %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay delivery %d: %+v, first run %+v", i, second[i], first[i])
			}
		}
	})
}
