package msgnet

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// delivery is one recorded OnDeliver event.
type delivery struct {
	from, to        procset.ID
	sent, delivered int
}

// pingMachine sends stamped messages to one destination forever.
type pingMachine struct {
	to    procset.ID
	n     int
	opBuf sim.Op
}

func (m *pingMachine) NextOp(prev any) *sim.Op {
	m.opBuf = sim.SendOp(m.to, m.n)
	m.n++
	return &m.opBuf
}

// pongMachine receives forever, recording delivered stamps.
type pongMachine struct {
	got   []int
	from  []procset.ID
	opBuf sim.Op
}

func (m *pongMachine) NextOp(prev any) *sim.Op {
	if msg, ok := prev.(*sim.Message); ok {
		m.got = append(m.got, msg.Payload.(int))
		m.from = append(m.from, msg.From)
	}
	m.opBuf = sim.RecvOp()
	return &m.opBuf
}

// pingPongRig builds a 2-process rig: p1 sends stamps to p2, p2 receives.
func pingPongRig(t *testing.T, cfg Config) (*sim.Runner, *Net, *pongMachine) {
	t.Helper()
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pong := &pongMachine{}
	r, err := sim.NewRunner(sim.Config{
		N:       cfg.N,
		Network: net,
		Machine: func(p procset.ID, _ sim.Registry) sim.Machine {
			if p == 1 {
				return &pingMachine{to: 2}
			}
			return pong
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, net, pong
}

// alternate returns a schedule alternating p1, p2 for steps steps.
func alternate(steps int) sched.Schedule {
	s := make(sched.Schedule, steps)
	for i := range s {
		s[i] = procset.ID(i%2 + 1)
	}
	return s
}

func TestSyncDeliveryWithinDelta(t *testing.T) {
	const delta = 3
	var deliveries []delivery
	cfg := Config{
		N:       2,
		Default: SyncLink(delta),
		Seed:    7,
		OnDeliver: func(from, to procset.ID, sent, dlv int) {
			deliveries = append(deliveries, delivery{from, to, sent, dlv})
		},
	}
	r, net, pong := pingPongRig(t, cfg)
	r.RunSchedule(alternate(400))
	if len(pong.got) == 0 {
		t.Fatal("no deliveries on a sync link")
	}
	for _, d := range deliveries {
		if lag := d.delivered - d.sent; lag < 1 {
			t.Fatalf("delivery at %d before its send at %d", d.delivered, d.sent)
		}
	}
	// Within Δ of *readiness*: the recv step may poll later than the ready
	// step, but every message sent at least Δ+1 steps before a recv of an
	// otherwise-empty queue must have arrived. With alternating schedule and
	// one recv per send, the queue drains: all but the in-flight tail must be
	// delivered.
	st := net.Stats()
	if st.InFlight > delta {
		t.Fatalf("sync link retains %d in flight, want ≤ Δ=%d", st.InFlight, delta)
	}
	// Stamps arrive exactly once, in order (per-link FIFO under one sync
	// grade: ready steps are nondecreasing and seq breaks ties).
	for i, v := range pong.got {
		if v != i {
			t.Fatalf("stamp[%d] = %d, want %d (exactly-once in-order)", i, v, i)
		}
	}
}

func TestDeterministicReplayAndReset(t *testing.T) {
	mk := func() (*sim.Runner, *Net, *pongMachine) {
		return pingPongRig(t, Config{N: 2, Default: AsyncLink(), Seed: 99, Wild: 16})
	}
	r1, _, pong1 := mk()
	r1.RunSchedule(alternate(600))
	r2, _, pong2 := mk()
	r2.RunSchedule(alternate(600))
	if len(pong1.got) == 0 {
		t.Fatal("async link delivered nothing in 600 steps")
	}
	if len(pong1.got) != len(pong2.got) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(pong1.got), len(pong2.got))
	}
	for i := range pong1.got {
		if pong1.got[i] != pong2.got[i] {
			t.Fatalf("same seed, different delivery %d: %d vs %d", i, pong1.got[i], pong2.got[i])
		}
	}
	// Reset replays bit-identically on the same pooled rig.
	first := append([]int(nil), pong1.got...)
	if err := r1.Reset(); err != nil {
		t.Fatal(err)
	}
	pong1.got = pong1.got[:0]
	r1.RunSchedule(alternate(600))
	if len(pong1.got) != len(first) {
		t.Fatalf("reset replay delivered %d, want %d", len(pong1.got), len(first))
	}
	for i := range first {
		if pong1.got[i] != first[i] {
			t.Fatalf("reset replay diverged at %d: %d vs %d", i, pong1.got[i], first[i])
		}
	}
}

func TestAsyncReordersWithinWild(t *testing.T) {
	var deliveries []delivery
	cfg := Config{
		N: 2, Default: AsyncLink(), Seed: 3, Wild: 32,
		OnDeliver: func(from, to procset.ID, sent, dlv int) {
			deliveries = append(deliveries, delivery{from, to, sent, dlv})
		},
	}
	r, _, pong := pingPongRig(t, cfg)
	r.RunSchedule(alternate(2000))
	reordered := false
	for i := 1; i < len(pong.got); i++ {
		if pong.got[i] < pong.got[i-1] {
			reordered = true
		}
	}
	if !reordered {
		t.Fatal("async link with Wild=32 never reordered — grade indistinguishable from sync")
	}
	for _, d := range deliveries {
		if lag := d.delivered - d.sent; lag > 32+2000/2 {
			t.Fatalf("implausible lag %d", lag)
		}
	}
}

func TestVaryingLinkPhases(t *testing.T) {
	// Async until step 300, sync(Δ=2) after: late sends must obey the bound.
	link := Link{Phases: []Phase{
		{From: 0, Spec: LinkSpec{Grade: Async}},
		{From: 300, Spec: LinkSpec{Grade: Sync, Delta: 2}},
	}}
	var deliveries []delivery
	cfg := Config{
		N: 2, Default: link, Seed: 11, Wild: 40,
		OnDeliver: func(from, to procset.ID, sent, dlv int) {
			deliveries = append(deliveries, delivery{from, to, sent, dlv})
		},
	}
	r, _, _ := pingPongRig(t, cfg)
	// Schedule the receiver 3× per sender step so the async-era backlog
	// drains once the link turns synchronous.
	s := make(sched.Schedule, 800)
	for i := range s {
		if i%4 == 0 {
			s[i] = 1
		} else {
			s[i] = 2
		}
	}
	r.RunSchedule(s)
	sawLate := false
	for _, d := range deliveries {
		// Just past the switch the recipient still drains the async-era
		// backlog (earlier ready steps pop first), so bound only the steady
		// state well after it: ready within Δ=2 of the send, one recv every
		// other step, small residual queue.
		if d.sent >= 500 {
			sawLate = true
			if lag := d.delivered - d.sent; lag > 8 {
				t.Fatalf("post-phase-switch send at %d delivered at %d (lag %d: sync bound not in force)", d.sent, d.delivered, lag)
			}
		}
	}
	if !sawLate {
		t.Fatal("no post-switch deliveries observed")
	}
}

// clampDirector tries to cheat: deliver everything absurdly late and drop
// everything. The net must clamp it to grade bounds.
type clampDirector struct{ drops, asked int }

func (d *clampDirector) OnSend(env Envelope, minReady, maxReady int, canDrop bool) (int, bool) {
	d.asked++
	if canDrop {
		d.drops++
		return maxReady, true
	}
	return maxReady + 1_000_000, false
}

func TestDirectorClampedToGradeBounds(t *testing.T) {
	dir := &clampDirector{}
	var deliveries []delivery
	cfg := Config{
		N: 2, Default: SyncLink(2), Seed: 5, Director: dir,
		OnDeliver: func(from, to procset.ID, sent, dlv int) {
			deliveries = append(deliveries, delivery{from, to, sent, dlv})
		},
	}
	r, net, _ := pingPongRig(t, cfg)
	r.RunSchedule(alternate(200))
	if dir.asked == 0 {
		t.Fatal("director never consulted")
	}
	if dir.drops != 0 {
		t.Fatalf("sync link offered canDrop to the director (%d drops)", dir.drops)
	}
	if st := net.Stats(); st.Dropped != 0 {
		t.Fatalf("sync link dropped %d messages", st.Dropped)
	}
	for _, d := range deliveries {
		// Director asked for +1e6; the grade clamps readiness to sent+Δ, and
		// the alternating schedule polls within 2 steps of readiness.
		if lag := d.delivered - d.sent; lag > 4 {
			t.Fatalf("director escaped the sync bound: send %d delivered %d", d.sent, d.delivered)
		}
	}

	// Same director on an async link: every message is droppable.
	dir2 := &clampDirector{}
	r2, net2, pong2 := pingPongRig(t, Config{N: 2, Default: AsyncLink(), Seed: 5, Director: dir2})
	r2.RunSchedule(alternate(200))
	if dir2.drops == 0 {
		t.Fatal("async link never offered canDrop")
	}
	if st := net2.Stats(); st.Dropped != int64(dir2.drops) {
		t.Fatalf("dropped stat %d, want %d", st.Dropped, dir2.drops)
	}
	if len(pong2.got) != 0 {
		t.Fatalf("dropped messages still delivered: %d", len(pong2.got))
	}
}

// corruptMutator adds 1000 to every int payload.
type corruptMutator struct{ hits int }

func (m *corruptMutator) MutateDeliver(from, to procset.ID, sentStep int, payload any) any {
	m.hits++
	return payload.(int) + 1000
}

func TestPayloadMutatorCorruptsDelivery(t *testing.T) {
	mut := &corruptMutator{}
	r, _, pong := pingPongRig(t, Config{N: 2, Default: SyncLink(1), Seed: 1, Mutator: mut})
	r.RunSchedule(alternate(100))
	if mut.hits == 0 || len(pong.got) == 0 {
		t.Fatal("mutator never exercised")
	}
	for i, v := range pong.got {
		if v != i+1000 {
			t.Fatalf("delivery %d = %d, want corrupted %d", i, v, i+1000)
		}
	}
}

// roundRobin returns [1..n] repeated for steps steps.
func roundRobin(n, steps int) sched.Schedule {
	s := make(sched.Schedule, steps)
	for i := range s {
		s[i] = procset.ID(i%n + 1)
	}
	return s
}

func TestHeartbeatConvergesOnSyncMatrix(t *testing.T) {
	const n = 4
	hb, err := NewHeartbeat(HeartbeatConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: n, Default: SyncLink(2), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: n, Network: net, Machine: hb.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(roundRobin(n, 20_000))
	leader, ok := hb.Agree(procset.FullSet(n))
	if !ok || leader != 1 {
		t.Fatalf("sync matrix: Agree = (%v, %v), want (p1, true)", leader, ok)
	}
}

func TestHeartbeatLeaderSkipsCrashedProcess(t *testing.T) {
	const n = 3
	hb, err := NewHeartbeat(HeartbeatConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: n, Default: SyncLink(2), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: n, Network: net, Machine: hb.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// p1 crashes: the schedule simply stops containing it.
	s := make(sched.Schedule, 30_000)
	for i := range s {
		s[i] = procset.ID(i%2 + 2) // only p2, p3
	}
	r.RunSchedule(s)
	live := procset.MakeSet(2, 3)
	leader, ok := hb.Agree(live)
	if !ok || leader != 2 {
		t.Fatalf("after p1 crash: Agree = (%v, %v), want (p2, true)", leader, ok)
	}
}

func TestHeartbeatConvergesOnMixedGrades(t *testing.T) {
	// ≥3 links at different grades, one varying over intervals — the
	// acceptance matrix. p1's outgoing links are eventually timely, so Ω
	// must stabilize on p1.
	const n = 3
	cfg := Config{
		N:       n,
		Default: PartialSyncLink(2, 400),
		Links: map[LinkKey]Link{
			{From: 1, To: 2}: SyncLink(2),
			{From: 2, To: 3}: AsyncLink(),
			{From: 1, To: 3}: {Phases: []Phase{
				{From: 0, Spec: LinkSpec{Grade: Async}},
				{From: 600, Spec: LinkSpec{Grade: Sync, Delta: 2}},
			}},
		},
		Seed: 1234,
		Wild: 48,
	}
	hb, err := NewHeartbeat(HeartbeatConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: n, Network: net, Machine: hb.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(roundRobin(n, 60_000))
	leader, ok := hb.Agree(procset.FullSet(n))
	if !ok || leader != 1 {
		t.Fatalf("mixed matrix: Agree = (%v, %v), want (p1, true)", leader, ok)
	}
}

// TestHeartbeatStepVsBatchBitIdentical pins the generic per-step loop (an
// observer forces it) against the batched observer-free loop on a message
// workload: same seed, same schedule → identical leader outputs, rounds,
// step stats, and substrate stats.
func TestHeartbeatStepVsBatchBitIdentical(t *testing.T) {
	const n = 3
	mk := func(observed bool) (*sim.Runner, *Heartbeat, *Net) {
		hb, err := NewHeartbeat(HeartbeatConfig{N: n, Stamp: true})
		if err != nil {
			t.Fatal(err)
		}
		net, err := New(Config{N: n, Default: PartialSyncLink(3, 200), Seed: 77, Wild: 24})
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Config{N: n, Network: net, Machine: hb.Machine}
		if observed {
			c.Observer = func(sim.StepInfo) {}
		}
		r, err := sim.NewRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r, hb, net
	}
	rGen, hbGen, netGen := mk(true)
	rBat, hbBat, netBat := mk(false)
	src := func(seed int64) sched.Source {
		s, err := sched.Random(n, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rGen.Run(src(5), 30_000, 0, nil)
	rBat.Run(src(5), 30_000, 0, nil)
	for p := procset.ID(1); int(p) <= n; p++ {
		if hbGen.Leader(p) != hbBat.Leader(p) {
			t.Fatalf("leader(%v): generic %v vs batch %v", p, hbGen.Leader(p), hbBat.Leader(p))
		}
		if hbGen.Rounds(p) != hbBat.Rounds(p) {
			t.Fatalf("rounds(%v): generic %d vs batch %d", p, hbGen.Rounds(p), hbBat.Rounds(p))
		}
	}
	if gs, bs := rGen.Stats(), rBat.Stats(); gs != bs {
		t.Fatalf("runner stats diverge:\n generic %+v\n batch   %+v", gs, bs)
	}
	if gs, bs := netGen.Stats(), netBat.Stats(); gs != bs {
		t.Fatalf("net stats diverge:\n generic %+v\n batch   %+v", gs, bs)
	}
}

// TestSendRecvSteadyStateAllocs pins the observer-free message path at
// 0 allocs/op: pooled envelopes, reused queues, per-recipient delivery
// storage, nil heartbeat payloads.
func TestSendRecvSteadyStateAllocs(t *testing.T) {
	const n = 4
	hb, err := NewHeartbeat(HeartbeatConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: n, Default: PartialSyncLink(3, 100), Seed: 13, Wild: 24})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: n, Network: net, Machine: hb.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := sched.Random(n, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the arena, queues, and every machine past first-activation.
	r.Run(src, 50_000, 0, nil)
	allocs := testing.AllocsPerRun(50, func() {
		r.Run(src, 2048, 0, nil)
	})
	if allocs != 0 {
		t.Fatalf("send/recv steady state allocates %.1f allocs per 2048-step run, want 0", allocs)
	}
	st := r.Stats()
	if st.Sends == 0 || st.Recvs == 0 {
		t.Fatalf("workload executed no message steps: %+v", st)
	}
}

// TestSyncMatrixRoundStructureMatchesRegisterPlane is the cross-plane
// equivalence pin: on a fully synchronous Δ=1 matrix under round-robin
// scheduling, every process observes every peer's heartbeat stamps
// exactly once, in order, gapless — the round structure a register-plane
// heartbeat (write own round, read each peer) exhibits by construction.
// Both planes are run and both observation streams must be the canonical
// 0,1,2,... sequence.
func TestSyncMatrixRoundStructureMatchesRegisterPlane(t *testing.T) {
	const n, steps = 3, 6000

	// Message plane: stamped heartbeats over sync(Δ=1), window n-1 so a
	// round is exactly (n-1) sends + (n-1) recvs.
	hb, err := NewHeartbeat(HeartbeatConfig{N: n, Window: n - 1, Stamp: true})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: n, Default: SyncLink(1), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ obs, peer procset.ID }
	msgSeen := map[key][]int{}
	rMsg, err := sim.NewRunner(sim.Config{
		N: n, Network: net, Machine: hb.Machine,
		Observer: func(info sim.StepInfo) {
			if info.Kind == sim.OpRecv && info.Peer != 0 {
				k := key{info.Proc, info.Peer}
				msgSeen[k] = append(msgSeen[k], info.Value.(int))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rMsg.Close()
	rMsg.RunSchedule(roundRobin(n, steps))

	// Register plane: each process writes its round to its own register and
	// reads each peer's register once per round — the same rounds, observed
	// through shared memory.
	regSeen := map[key][]int{}
	rReg, err := sim.NewRunner(sim.Config{
		N: n,
		Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			return newRegHeartbeat(p, n, regs)
		},
		Observer: func(info sim.StepInfo) {
			if info.Kind == sim.OpRead && info.Value != nil {
				owner := procset.ID(int(info.Reg[3] - '0'))
				k := key{info.Proc, owner}
				regSeen[k] = append(regSeen[k], info.Value.(int))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rReg.Close()
	rReg.RunSchedule(roundRobin(n, steps))

	check := func(plane string, seen map[key][]int) {
		for obs := procset.ID(1); int(obs) <= n; obs++ {
			for peer := procset.ID(1); int(peer) <= n; peer++ {
				if obs == peer {
					continue
				}
				seq := dedupRuns(seen[key{obs, peer}])
				if len(seq) < 5 {
					t.Fatalf("%s plane: %v observed only %d rounds of %v", plane, obs, len(seq), peer)
				}
				for i, v := range seq {
					if v != i {
						t.Fatalf("%s plane: %v observed %v's rounds %v — not the gapless in-order round structure", plane, obs, peer, seq[:i+1])
					}
				}
			}
		}
	}
	check("message", msgSeen)
	check("register", regSeen)
}

// dedupRuns collapses consecutive duplicates (a register read may observe
// the same round twice when the reader laps the writer; a message is
// delivered exactly once, so the message plane is unchanged by this).
func dedupRuns(seq []int) []int {
	out := seq[:0:0]
	for i, v := range seq {
		if i == 0 || v != seq[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// regHeartbeat is the register-plane reference: write own round to reg
// "hb/<p>", then read each peer's register, repeat.
type regHeartbeat struct {
	self  procset.ID
	n     int
	own   sim.Ref
	peers []sim.Ref
	idx   int // next peer to read; len(peers) means "write next round"
	round int
	opBuf sim.Op
}

func newRegHeartbeat(p procset.ID, n int, regs sim.Registry) *regHeartbeat {
	m := &regHeartbeat{self: p, n: n, idx: len(regHeartbeatPeers(p, n))}
	m.own = regs.Reg(regName(p))
	for _, q := range regHeartbeatPeers(p, n) {
		m.peers = append(m.peers, regs.Reg(regName(q)))
	}
	return m
}

func regName(p procset.ID) string { return "hb/" + string('0'+byte(p)) }

func regHeartbeatPeers(p procset.ID, n int) []procset.ID {
	var out []procset.ID
	for q := procset.ID(1); int(q) <= n; q++ {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

func (m *regHeartbeat) NextOp(prev any) *sim.Op {
	if m.idx == len(m.peers) {
		m.idx = 0
		m.opBuf = sim.WriteOp(m.own, m.round)
		m.round++
		return &m.opBuf
	}
	m.opBuf = sim.ReadOp(m.peers[m.idx])
	m.idx++
	return &m.opBuf
}

// BenchmarkHeartbeatSteps measures the message plane's batched step
// throughput on the steady-state heartbeat workload (n = 4, partially
// synchronous matrix, observer-free): the per-step cost CI's bench-smoke
// pins alongside the 0 allocs/op assertion above.
func BenchmarkHeartbeatSteps(b *testing.B) {
	const n = 4
	hb, err := NewHeartbeat(HeartbeatConfig{N: n})
	if err != nil {
		b.Fatal(err)
	}
	net, err := New(Config{N: n, Default: PartialSyncLink(3, 100), Seed: 13, Wild: 24})
	if err != nil {
		b.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: n, Network: net, Machine: hb.Machine})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	src, err := sched.Random(n, 21, nil)
	if err != nil {
		b.Fatal(err)
	}
	r.Run(src, 50_000, 0, nil) // past first-activation and arena growth
	b.ReportAllocs()
	b.ResetTimer()
	r.Run(src, b.N, 0, nil)
}
