package kset

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// agreementSnapshot is everything observable about one agreement run: the
// StepInfo stream, the decide events in delivery order, and the final
// harness state.
type agreementSnapshot struct {
	trace     []sim.StepInfo
	events    []decideEvent
	decisions []any
	distinct  int
	decided   procset.Set
}

type decideEvent struct {
	proc procset.ID
	val  any
}

func proposals(p procset.ID) any { return fmt.Sprintf("v%d", p) }

func snapshotAgreement(t *testing.T, cfg Config, s sched.Schedule, machineMode bool) agreementSnapshot {
	t.Helper()
	var snap agreementSnapshot
	ag, err := New(cfg, func(p procset.ID, v any) {
		snap.events = append(snap.events, decideEvent{proc: p, val: v})
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := sim.Config{N: cfg.N, Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) }}
	if machineMode {
		scfg.Machine = ag.Machine(proposals)
	} else {
		scfg.Algorithm = ag.Algorithm(proposals)
	}
	r, err := sim.NewRunner(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	for p := 1; p <= cfg.N; p++ {
		v, _ := ag.Decision(procset.ID(p))
		snap.decisions = append(snap.decisions, v)
	}
	snap.distinct = ag.DistinctDecisions()
	snap.decided = ag.DecidedSet()
	return snap
}

func sameAgreementSnapshot(t *testing.T, label string, a, b agreementSnapshot) {
	t.Helper()
	if len(a.trace) != len(b.trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("%s: StepInfo streams diverge at step %d:\n  %+v\n  %+v", label, i, a.trace[i], b.trace[i])
		}
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("%s: decide event counts differ: %d vs %d", label, len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("%s: decide events diverge at %d: %+v vs %+v", label, i, a.events[i], b.events[i])
		}
	}
	for p := range a.decisions {
		if a.decisions[p] != b.decisions[p] {
			t.Fatalf("%s: decision of p%d differs: %v vs %v", label, p+1, a.decisions[p], b.decisions[p])
		}
	}
	if a.distinct != b.distinct || a.decided != b.decided {
		t.Fatalf("%s: harness state differs: (%d,%v) vs (%d,%v)", label,
			a.distinct, a.decided, b.distinct, b.decided)
	}
}

// agreementCases cover both algorithms, including the Theorem 27 detector
// override.
var agreementCases = []struct {
	name string
	cfg  Config
}{
	{"trivial-n4k3t2", Config{N: 4, K: 3, T: 2}},
	{"paxos-n4k2t2", Config{N: 4, K: 2, T: 2}},
	{"paxos-n3k1t1", Config{N: 3, K: 1, T: 1}},
	{"detectorK-n5k2t3", Config{N: 5, K: 2, T: 3, DetectorK: 1}},
}

// caseSchedule builds a decision-friendly schedule for the configuration:
// conformant for the detector path (so leader attempts succeed and the
// decide/halt path is exercised), random for the trivial algorithm.
func caseSchedule(t *testing.T, cfg Config, steps int) sched.Schedule {
	t.Helper()
	var (
		src sched.Source
		err error
	)
	crashes := map[procset.ID]int{procset.ID(cfg.N): 40}
	if cfg.UsesTrivialAlgorithm() {
		src, err = sched.Random(cfg.N, 77, crashes)
	} else {
		dk := cfg.DetectorK
		if dk == 0 {
			dk = cfg.K
		}
		src, _, err = sched.System(cfg.N, dk, cfg.T+1, 4, 77, crashes)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sched.Take(src, steps)
}

// TestMachineMatchesAlgorithm is the port's contract: the direct-dispatch
// agreement replays the coroutine agreement bit for bit — identical StepInfo
// streams, identical decide events, identical harness state — across both
// algorithms, both engines, and the DetectorK override.
func TestMachineMatchesAlgorithm(t *testing.T) {
	t.Parallel()
	for _, tc := range agreementCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := caseSchedule(t, tc.cfg, 60_000)
			coro := snapshotAgreement(t, tc.cfg, s, false)
			mach := snapshotAgreement(t, tc.cfg, s, true)
			sameAgreementSnapshot(t, tc.name, coro, mach)
			if coro.decided.IsEmpty() {
				t.Logf("%s: no process decided within the test schedule (equivalence still checked)", tc.name)
			}
		})
	}
}

// TestMachineAgreementResetDeterminism pins the pooled path: a machine
// agreement reused via Agreement.Reset + Runner.Reset replays a fresh run
// bit for bit, twice.
func TestMachineAgreementResetDeterminism(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paxos-n4k2t2", Config{N: 4, K: 2, T: 2}},
		{"trivial-n4k3t2", Config{N: 4, K: 3, T: 2}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := caseSchedule(t, tc.cfg, 30_000)
			fresh := snapshotAgreement(t, tc.cfg, s, true)

			var snap agreementSnapshot
			ag, err := New(tc.cfg, func(p procset.ID, v any) {
				snap.events = append(snap.events, decideEvent{proc: p, val: v})
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewRunner(sim.Config{
				N:        tc.cfg.N,
				Machine:  ag.Machine(proposals),
				Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for round := 0; round < 2; round++ {
				snap = agreementSnapshot{}
				ag.Reset()
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
				r.RunSchedule(s)
				for p := 1; p <= tc.cfg.N; p++ {
					v, _ := ag.Decision(procset.ID(p))
					snap.decisions = append(snap.decisions, v)
				}
				snap.distinct = ag.DistinctDecisions()
				snap.decided = ag.DecidedSet()
				sameAgreementSnapshot(t, fmt.Sprintf("fresh vs reuse round %d", round), fresh, snap)
			}
		})
	}
}
