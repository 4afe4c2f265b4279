// Package msgnet is the message-passing timing plane: a graded-link channel
// substrate that plugs into the simulator's machine loop through sim.Network
// (OpSend/OpRecv steps), the way Granular Synchrony (arXiv:2408.12853) and
// Unifying Partial Synchrony (arXiv:2405.10249) generalize the paper's
// timing model from process schedules to per-link delivery bounds.
//
// Every directed link carries a timing grade:
//
//   - Sync{Δ}: every message is delivered within Δ steps of its send.
//   - PartialSync{Δ, GST}: after global step GST every message is delivered
//     within Δ; messages sent earlier are delivered by max(GST, sent)+Δ but
//     may also be lost (the DLS-style pre-GST regime).
//   - Async: delivery is only eventually guaranteed, and messages may be
//     lost. Since a simulation is finite, "eventual" is made concrete by
//     the network-wide Wild bound — large relative to Δ, and explicit in
//     the configuration rather than hidden in the implementation.
//
// Grades may vary over intervals (Link.Phases), so one run can cross a
// global stabilization event or degrade a link mid-run.
//
// Determinism: time is schedule time (the global step index the runner
// passes in), each send draws its concrete delay from one seeded stream
// (sched.LinkDelays) in schedule order, and per-recipient delivery order is
// the total order (ready step, send sequence). A (seed, schedule) pair
// therefore fixes every delivery, and Reset rewinds the whole substrate for
// bit-identical pooled replays.
//
// Steady-state sends and recvs allocate nothing: envelopes live in a
// grow-only arena recycled through a free list, per-recipient queues are
// binary heaps over index slices that keep their capacity, and a delivered
// message is returned through per-recipient reusable storage.
package msgnet

import (
	"fmt"
	"math"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Grade is a link's timing class.
type Grade uint8

// Link timing grades, weakest first.
const (
	Async Grade = iota
	PartialSync
	Sync
)

// String returns the grade's short name (the one campaign tallies use).
func (g Grade) String() string {
	switch g {
	case Async:
		return "async"
	case PartialSync:
		return "psync"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

// LinkSpec is one link's timing contract: a grade plus its parameters.
type LinkSpec struct {
	// Grade is the timing class.
	Grade Grade
	// Delta is the delivery bound (in steps) for Sync links and for
	// PartialSync links after GST. Ignored for Async.
	Delta int
	// GST is the global stabilization step of a PartialSync link. Ignored
	// otherwise.
	GST int
}

func (s LinkSpec) validate() error {
	switch s.Grade {
	case Sync:
		if s.Delta < 1 {
			return fmt.Errorf("msgnet: sync link needs Delta ≥ 1, got %d", s.Delta)
		}
	case PartialSync:
		if s.Delta < 1 {
			return fmt.Errorf("msgnet: psync link needs Delta ≥ 1, got %d", s.Delta)
		}
		if s.GST < 0 {
			return fmt.Errorf("msgnet: psync link needs GST ≥ 0, got %d", s.GST)
		}
	case Async:
	default:
		return fmt.Errorf("msgnet: unknown grade %v", s.Grade)
	}
	return nil
}

// String renders the spec the way link tallies and reports print it.
func (s LinkSpec) String() string {
	switch s.Grade {
	case Sync:
		return fmt.Sprintf("sync(Δ=%d)", s.Delta)
	case PartialSync:
		return fmt.Sprintf("psync(Δ=%d,GST=%d)", s.Delta, s.GST)
	default:
		return "async"
	}
}

// Phase is one interval of a varying link: Spec holds from global step From
// until the next phase begins.
type Phase struct {
	From int
	Spec LinkSpec
}

// Link is one directed link's timing behavior: a fixed Spec, or a sequence
// of Phases (which overrides Spec when non-empty). Phases must start at
// step 0 and be strictly increasing in From.
type Link struct {
	Spec   LinkSpec
	Phases []Phase
}

func (l Link) validate() error {
	if len(l.Phases) == 0 {
		return l.Spec.validate()
	}
	if l.Phases[0].From != 0 {
		return fmt.Errorf("msgnet: link phases must start at step 0, got %d", l.Phases[0].From)
	}
	for i, ph := range l.Phases {
		if i > 0 && ph.From <= l.Phases[i-1].From {
			return fmt.Errorf("msgnet: link phases out of order at %d", ph.From)
		}
		if err := ph.Spec.validate(); err != nil {
			return err
		}
	}
	return nil
}

// SyncLink, PartialSyncLink, and AsyncLink are the grade shorthands matrix
// builders compose from.
func SyncLink(delta int) Link { return Link{Spec: LinkSpec{Grade: Sync, Delta: delta}} }

// PartialSyncLink returns a partially synchronous link.
func PartialSyncLink(delta, gst int) Link {
	return Link{Spec: LinkSpec{Grade: PartialSync, Delta: delta, GST: gst}}
}

// AsyncLink returns an asynchronous link.
func AsyncLink() Link { return Link{Spec: LinkSpec{Grade: Async}} }

// LinkKey addresses one directed link.
type LinkKey struct {
	From, To procset.ID
}

// Envelope is the read-only view of one in-flight message handed to
// directors.
type Envelope struct {
	From, To procset.ID
	SentStep int
	Seq      uint64
	Payload  any
}

// Director is the message-plane adversary hook, mirroring the scheduling
// Director of internal/sim: OnSend is consulted once per send, with the
// envelope and the delivery window the link's current grade allows, and
// decides the message's fate *within those bounds*. The returned ready step
// is clamped to [minReady, maxReady]; drop is honored only when canDrop is
// true (an Async link, or a PartialSync link before its GST) — a director
// cannot break a sync bound, only exhaust it. Crash adversaries compose
// from the scheduling side (a crashed process stops appearing in the
// schedule); Byzantine delivery corruption composes through PayloadMutator.
type Director interface {
	OnSend(env Envelope, minReady, maxReady int, canDrop bool) (ready int, drop bool)
}

// PayloadMutator is the delivery-side analogue of sim.WriteMutator: it is
// consulted as a message is delivered and may replace the payload the
// recipient sees. The sender is never told — it proceeds believing its own
// payload arrived, exactly the corrupting-channel model. Mutated payloads
// must respect whatever invariants the receiving automata check at runtime.
type PayloadMutator interface {
	MutateDeliver(from, to procset.ID, sentStep int, payload any) any
}

// Config configures a Net.
type Config struct {
	// N is the system size (matching the runner's).
	N int
	// Default is the timing behavior of every link not listed in Links.
	Default Link
	// Links overrides individual directed links.
	Links map[LinkKey]Link
	// Seed seeds the delay stream. Same seed, same schedule → same
	// deliveries.
	Seed int64
	// Wild is the delivery bound of the unbounded regimes (Async links,
	// PartialSync before GST): finite so every undropped message is
	// eventually deliverable in a finite run. 0 means DefaultWild.
	Wild int
	// OnDeliver, if non-nil, observes every delivery (the feed for
	// obs.LinkMonitor's online grade extraction). It runs on the stepping
	// goroutine and must not allocate if the 0 allocs/op contract matters
	// to the caller.
	OnDeliver func(from, to procset.ID, sentStep, deliveredStep int)
	// Director, if non-nil, adversarially picks delivery times (and drops,
	// where the grade permits) within grade bounds.
	Director Director
	// Mutator, if non-nil, may corrupt payloads at delivery.
	Mutator PayloadMutator
}

// DefaultWild is the unbounded-regime delivery bound when Config.Wild is 0.
const DefaultWild = 64

// NetStats counts substrate events since construction or the last Reset.
type NetStats struct {
	// Sent counts accepted sends (drops included).
	Sent int64 `json:"sent"`
	// Delivered counts messages handed to recipients.
	Delivered int64 `json:"delivered"`
	// Dropped counts messages a director dropped.
	Dropped int64 `json:"dropped"`
	// InFlight is the number of queued, undelivered messages (a gauge).
	InFlight int64 `json:"in_flight"`
}

// linkState is one directed link's resolved timing behavior plus its phase
// cursor (advanced monotonically — sends arrive in schedule order).
type linkState struct {
	spec   LinkSpec
	phases []Phase
	cur    int
}

// envelope is one in-flight message in the arena.
type envelope struct {
	from     procset.ID
	sentStep int
	ready    int
	seq      uint64
	payload  any
}

// Net is the graded-link message substrate. It implements sim.Network; all
// methods are stepping-goroutine only, like the runner that drives it.
type Net struct {
	n      int
	wild   int
	links  []linkState // (from-1)*n + (to-1)
	delays *sched.LinkDelays

	onDeliver func(from, to procset.ID, sentStep, deliveredStep int)
	director  Director
	mutator   PayloadMutator

	envs   []envelope // grow-only arena
	free   []int32    // recycled arena indexes
	queues [][]int32  // per recipient: binary min-heap of arena indexes by (ready, seq)
	heads  []int      // per recipient: ready step of its heap's top, MaxInt when empty
	recv   []sim.Message

	seq   uint64
	stats NetStats
}

// New builds a Net from cfg.
func New(cfg Config) (*Net, error) {
	if cfg.N < 1 || cfg.N > procset.MaxProcs {
		return nil, fmt.Errorf("msgnet: n = %d out of range [1,%d]", cfg.N, procset.MaxProcs)
	}
	if err := cfg.Default.validate(); err != nil {
		return nil, err
	}
	wild := cfg.Wild
	if wild == 0 {
		wild = DefaultWild
	}
	if wild < 1 {
		return nil, fmt.Errorf("msgnet: Wild = %d < 1", cfg.Wild)
	}
	n := cfg.N
	net := &Net{
		n:         n,
		wild:      wild,
		links:     make([]linkState, n*n),
		delays:    sched.NewLinkDelays(cfg.Seed),
		onDeliver: cfg.OnDeliver,
		director:  cfg.Director,
		mutator:   cfg.Mutator,
		queues:    make([][]int32, n),
		heads:     make([]int, n),
		recv:      make([]sim.Message, n),
	}
	clearHeads(net.heads)
	for i := range net.links {
		net.links[i] = linkState{spec: cfg.Default.Spec, phases: cfg.Default.Phases}
	}
	for key, l := range cfg.Links {
		if key.From < 1 || procset.ID(n) < key.From || key.To < 1 || procset.ID(n) < key.To {
			return nil, fmt.Errorf("msgnet: link %v→%v outside Π%d", key.From, key.To, n)
		}
		if key.From == key.To {
			return nil, fmt.Errorf("msgnet: self-link %v→%v", key.From, key.To)
		}
		if err := l.validate(); err != nil {
			return nil, fmt.Errorf("msgnet: link %v→%v: %w", key.From, key.To, err)
		}
		net.links[net.linkIndex(key.From, key.To)] = linkState{spec: l.Spec, phases: l.Phases}
	}
	return net, nil
}

func (net *Net) linkIndex(from, to procset.ID) int {
	return (int(from)-1)*net.n + int(to) - 1
}

// specNow resolves the link's spec at step, advancing the phase cursor.
func (ls *linkState) specNow(step int) LinkSpec {
	if len(ls.phases) == 0 {
		return ls.spec
	}
	for ls.cur+1 < len(ls.phases) && ls.phases[ls.cur+1].From <= step {
		ls.cur++
	}
	return ls.phases[ls.cur].Spec
}

// window computes the delivery window the grade allows a message sent at
// step: the earliest and latest permitted ready steps, and whether the
// regime permits loss.
func window(spec LinkSpec, step, wild int) (minReady, maxReady int, canDrop bool) {
	minReady = step + 1
	switch spec.Grade {
	case Sync:
		maxReady = step + spec.Delta
	case PartialSync:
		if step >= spec.GST {
			maxReady = step + spec.Delta
		} else {
			maxReady = spec.GST + spec.Delta
			if maxReady > step+wild {
				maxReady = step + wild
			}
			if maxReady < minReady {
				maxReady = minReady
			}
			canDrop = true
		}
	default: // Async
		maxReady = step + wild
		canDrop = true
	}
	return minReady, maxReady, canDrop
}

// Send implements sim.Network: one message from→to handed over at the given
// global step. The delay is drawn from the seeded stream within the link's
// current window; a director may then re-time or (where the grade permits)
// drop it. Steady state allocates nothing.
func (net *Net) Send(step int, from, to procset.ID, payload any) {
	net.stats.Sent++
	ls := &net.links[net.linkIndex(from, to)]
	spec := ls.specNow(step)
	minReady, maxReady, canDrop := window(spec, step, net.wild)
	ready := step + net.delays.Draw(1, maxReady-step)
	seq := net.seq
	net.seq++
	if d := net.director; d != nil {
		r2, drop := d.OnSend(Envelope{From: from, To: to, SentStep: step, Seq: seq, Payload: payload}, minReady, maxReady, canDrop)
		if drop && canDrop {
			net.stats.Dropped++
			return
		}
		ready = min(max(r2, minReady), maxReady)
	}
	var idx int32
	if k := len(net.free); k > 0 {
		idx = net.free[k-1]
		net.free = net.free[:k-1]
	} else {
		net.envs = append(net.envs, envelope{})
		idx = int32(len(net.envs) - 1)
	}
	net.envs[idx] = envelope{from: from, sentStep: step, ready: ready, seq: seq, payload: payload}
	net.push(int(to)-1, idx)
}

// Recv implements sim.Network: the next deliverable message for process to
// at the given global step, or nil. The returned pointer aims into
// per-recipient reusable storage — valid until to's next recv.
func (net *Net) Recv(step int, to procset.ID) *sim.Message {
	qi := int(to) - 1
	if net.heads[qi] > step {
		// Empty or not yet ready: about half of all recvs end here, so the
		// answer is one int, not a heap slice and an arena envelope.
		return nil
	}
	idx := net.pop(qi)
	env := &net.envs[idx]
	payload := env.payload
	if net.mutator != nil {
		payload = net.mutator.MutateDeliver(env.from, to, env.sentStep, payload)
	}
	m := &net.recv[qi]
	*m = sim.Message{From: env.from, SentStep: env.sentStep, Seq: env.seq, Payload: payload}
	if net.onDeliver != nil {
		net.onDeliver(env.from, to, env.sentStep, step)
	}
	env.payload = nil // do not retain delivered payloads in the arena
	net.free = append(net.free, idx)
	net.stats.Delivered++
	return m
}

// Reset implements sim.Network: queues emptied, phase cursors, sequence
// numbers, delay stream, and stats rewound; arena and queue capacity kept.
func (net *Net) Reset() {
	for i, q := range net.queues {
		for _, idx := range q {
			net.envs[idx].payload = nil
		}
		net.queues[i] = q[:0]
	}
	clearHeads(net.heads)
	net.free = net.free[:0]
	net.envs = net.envs[:0]
	for i := range net.links {
		net.links[i].cur = 0
	}
	clear(net.recv)
	net.delays.Reset()
	net.seq = 0
	net.stats = NetStats{}
}

// Reseed replaces the delay-stream seed and then Resets: the pooled-rig
// idiom for campaigns, where one Net serves many runs that each need a
// fresh (but reproducible) delay population.
func (net *Net) Reseed(seed int64) {
	net.delays.Reseed(seed)
	net.Reset()
}

// Stats returns a snapshot of the substrate's counters.
func (net *Net) Stats() NetStats {
	s := net.stats
	for _, q := range net.queues {
		s.InFlight += int64(len(q))
	}
	return s
}

// clearHeads marks every recipient's heap empty.
func clearHeads(heads []int) {
	for i := range heads {
		heads[i] = math.MaxInt
	}
}

// head returns the ready step of heap q's top, MaxInt when q is empty.
func (net *Net) head(q []int32) int {
	if len(q) == 0 {
		return math.MaxInt
	}
	return net.envs[q[0]].ready
}

// less orders the heap: earliest ready first, send sequence breaking ties —
// the deterministic total delivery order.
func (net *Net) less(a, b int32) bool {
	ea, eb := &net.envs[a], &net.envs[b]
	return ea.ready < eb.ready || (ea.ready == eb.ready && ea.seq < eb.seq)
}

// push adds an arena index to recipient qi's heap.
func (net *Net) push(qi int, idx int32) {
	q := append(net.queues[qi], idx)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !net.less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	net.queues[qi] = q
	net.heads[qi] = net.head(q)
}

// pop removes and returns the minimum of recipient qi's heap.
func (net *Net) pop(qi int) int32 {
	q := net.queues[qi]
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && net.less(q[l], q[smallest]) {
			smallest = l
		}
		if r < last && net.less(q[r], q[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	net.queues[qi] = q
	net.heads[qi] = net.head(q)
	return top
}
