package obs

import (
	"math/rand/v2"
	"testing"

	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// mustLinkMonitor builds a link monitor or fails the test.
func mustLinkMonitor(t *testing.T, n, delta int) *LinkMonitor {
	t.Helper()
	m, err := NewLinkMonitor(n, delta)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLinkMonitorMatchesBatchOnEveryPrefix is the plane's core contract
// applied to links: after each observed delivery, every online answer is
// bit-identical to the batch extractor over the log so far.
func TestLinkMonitorMatchesBatchOnEveryPrefix(t *testing.T) {
	const n, delta = 4, 3
	rng := rand.New(rand.NewPCG(10, 20))
	log := make([]Delivery, 0, 400)
	for range cap(log) {
		from := procset.ID(rng.IntN(n) + 1)
		to := procset.ID(rng.IntN(n) + 1)
		for to == from {
			to = procset.ID(rng.IntN(n) + 1)
		}
		sent := rng.IntN(1000)
		log = append(log, Delivery{
			From:      from,
			To:        to,
			SentStep:  sent,
			Delivered: sent + 1 + rng.IntN(3*delta),
		})
	}

	m := mustLinkMonitor(t, n, delta)
	for i, d := range log {
		m.Observe(d.From, d.To, d.SentStep, d.Delivered)
		want, err := ExtractLinkGrades(n, delta, log[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		got := m.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("prefix %d: snapshot has %d links, batch %d", i+1, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("prefix %d link %d→%d: online %+v, batch %+v",
					i+1, got[k].From, got[k].To, got[k], want[k])
			}
		}
	}
}

// TestLinkMonitorOrderIndependent checks the estimator folds are genuinely
// commutative: shuffling a delivery log never changes any answer.
func TestLinkMonitorOrderIndependent(t *testing.T) {
	const n, delta = 3, 2
	log := []Delivery{
		{From: 1, To: 2, SentStep: 10, Delivered: 11},
		{From: 1, To: 2, SentStep: 40, Delivered: 50}, // over bound, late send
		{From: 1, To: 2, SentStep: 100, Delivered: 101},
		{From: 2, To: 1, SentStep: 5, Delivered: 30},
		{From: 2, To: 3, SentStep: 7, Delivered: 8},
	}
	base := mustLinkMonitor(t, n, delta)
	for _, d := range log {
		base.Observe(d.From, d.To, d.SentStep, d.Delivered)
	}
	want := FormatLinkGrades(base.Snapshot())
	rng := rand.New(rand.NewPCG(3, 7))
	for range 20 {
		rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
		m := mustLinkMonitor(t, n, delta)
		for _, d := range log {
			m.Observe(d.From, d.To, d.SentStep, d.Delivered)
		}
		if got := FormatLinkGrades(m.Snapshot()); got != want {
			t.Fatalf("shuffled log graded %q, original order %q", got, want)
		}
	}
}

// TestLinkGradeClassification pins the estimator's verdicts and the GST
// estimate on hand-built histories.
func TestLinkGradeClassification(t *testing.T) {
	const n, delta = 2, 2
	cases := []struct {
		name  string
		log   []Delivery
		grade LinkGrade
		gst   int
	}{
		{
			name:  "idle",
			grade: LinkIdle,
		},
		{
			name: "sync",
			log: []Delivery{
				{From: 1, To: 2, SentStep: 0, Delivered: 2},
				{From: 1, To: 2, SentStep: 5, Delivered: 6},
			},
			grade: LinkSync,
		},
		{
			name: "psync",
			log: []Delivery{
				{From: 1, To: 2, SentStep: 0, Delivered: 10},  // over
				{From: 1, To: 2, SentStep: 40, Delivered: 50}, // over, latest
				{From: 1, To: 2, SentStep: 60, Delivered: 61}, // timely after last over
			},
			grade: LinkPartialSync,
			gst:   41,
		},
		{
			name: "async when the tail is still over bound",
			log: []Delivery{
				{From: 1, To: 2, SentStep: 0, Delivered: 1},
				{From: 1, To: 2, SentStep: 40, Delivered: 90},
			},
			grade: LinkAsync,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mustLinkMonitor(t, n, delta)
			for _, d := range tc.log {
				m.Observe(d.From, d.To, d.SentStep, d.Delivered)
			}
			s := m.Status(1, 2)
			if s.Grade != tc.grade {
				t.Fatalf("grade = %v, want %v (status %+v)", s.Grade, tc.grade, s)
			}
			if tc.grade == LinkPartialSync && s.GSTEstimate != tc.gst {
				t.Fatalf("GSTEstimate = %d, want %d", s.GSTEstimate, tc.gst)
			}
		})
	}
}

// TestFormatLinkGrades pins the canonical rendering campaigns key on.
func TestFormatLinkGrades(t *testing.T) {
	m := mustLinkMonitor(t, 3, 2)
	m.Observe(1, 2, 0, 1)   // sync
	m.Observe(1, 3, 10, 20) // over...
	m.Observe(1, 3, 30, 31) // ...then timely: psync, gst≈11
	m.Observe(2, 1, 0, 50)  // async
	want := "1→2:sync 1→3:psync(gst≈11) 2→1:async 2→3:idle 3→1:idle 3→2:idle"
	if got := FormatLinkGrades(m.Snapshot()); got != want {
		t.Fatalf("FormatLinkGrades = %q, want %q", got, want)
	}
}

// TestLinkMonitorReset checks Reset reverts to all-idle so pooled campaign
// rigs can reuse one monitor per job.
func TestLinkMonitorReset(t *testing.T) {
	m := mustLinkMonitor(t, 2, 1)
	m.Observe(1, 2, 0, 100)
	if g := m.Status(1, 2).Grade; g != LinkAsync {
		t.Fatalf("pre-reset grade = %v, want async", g)
	}
	m.Reset()
	for _, s := range m.Snapshot() {
		if s.Grade != LinkIdle || s.Delivered != 0 {
			t.Fatalf("post-reset link %d→%d not idle: %+v", s.From, s.To, s)
		}
	}
}

// TestLinkMonitorValidation pins the constructor's and extractor's input
// checking.
func TestLinkMonitorValidation(t *testing.T) {
	if _, err := NewLinkMonitor(0, 1); err == nil {
		t.Fatal("NewLinkMonitor(0, 1) accepted")
	}
	if _, err := NewLinkMonitor(2, 0); err == nil {
		t.Fatal("NewLinkMonitor(2, 0) accepted")
	}
	if _, err := ExtractLinkGrades(2, 1, []Delivery{{From: 3, To: 1}}); err == nil {
		t.Fatal("ExtractLinkGrades accepted an out-of-range sender")
	}
}

// hbRigDeliveries runs a heartbeat workload on a mixed-grade matrix with the
// monitor wired into OnDeliver, and returns the monitor plus the raw log.
func hbRigDeliveries(t *testing.T, steps int) (*LinkMonitor, []Delivery) {
	t.Helper()
	// The probe bound absorbs scheduling dilation: the recipient runs every
	// 3rd step and polls only in its recv window, so even a Δ=2 link's
	// end-to-end delay is several steps. 12 clears the sync link's worst
	// case while staying far under the async link's Wild horizon.
	const n, probe = 3, 12
	m := mustLinkMonitor(t, n, probe)
	var log []Delivery
	net, err := msgnet.New(msgnet.Config{
		N:       n,
		Default: msgnet.SyncLink(2),
		Links: map[msgnet.LinkKey]msgnet.Link{
			{From: 2, To: 3}: msgnet.AsyncLink(),
			{From: 1, To: 3}: msgnet.PartialSyncLink(2, 400),
		},
		Seed: 99,
		OnDeliver: func(from, to procset.ID, sentStep, deliveredStep int) {
			m.Observe(from, to, sentStep, deliveredStep)
			log = append(log, Delivery{From: from, To: to, SentStep: sentStep, Delivered: deliveredStep})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := msgnet.NewHeartbeat(msgnet.HeartbeatConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: n, Machine: hb.Machine, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	s := make(sched.Schedule, steps)
	for i := range s {
		s[i] = procset.ID(i%n + 1)
	}
	r.RunSchedule(s)
	return m, log
}

// TestLinkMonitorOnHeartbeatRun drives the monitor from a real mixed-grade
// network run via OnDeliver and checks (a) online answers equal the batch
// extractor on the full log and (b) the configured grades are recovered on
// the links the workload exercises.
func TestLinkMonitorOnHeartbeatRun(t *testing.T) {
	m, log := hbRigDeliveries(t, 6000)
	if len(log) == 0 {
		t.Fatal("workload delivered nothing")
	}
	want, err := ExtractLinkGrades(3, m.Delta(), log)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Snapshot()
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("link %d→%d: online %+v, batch %+v", got[k].From, got[k].To, got[k], want[k])
		}
	}
	// The sync default must be extracted as sync wherever it applies, and
	// the async link must not be graded sync.
	for _, s := range got {
		key := [2]procset.ID{s.From, s.To}
		switch key {
		case [2]procset.ID{2, 3}:
			if s.Grade == LinkSync {
				t.Fatalf("async link 2→3 extracted as sync: %+v", s)
			}
		case [2]procset.ID{1, 3}:
			// Pre-GST behavior depends on draws; post-GST it must not look
			// worse than psync once anything was over bound.
			if s.Grade == LinkIdle {
				t.Fatalf("psync link 1→3 never delivered")
			}
		default:
			if s.Grade != LinkSync {
				t.Fatalf("sync link %d→%d extracted as %v: %+v", s.From, s.To, s.Grade, s)
			}
		}
	}
}
