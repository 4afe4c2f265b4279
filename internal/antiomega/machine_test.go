package antiomega

import (
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// detectorTrace runs a fresh Detector for the given config over the
// schedule in the requested mode and returns the StepInfo stream, the
// recorded output-change events, and the final per-process harness state.
type detectorSnapshot struct {
	trace   []sim.StepInfo
	events  []outputEvent
	outputs []procset.Set
	winners []procset.Set
	iters   []int
}

type outputEvent struct {
	proc procset.ID
	out  procset.Set
}

func snapshotDetector(t *testing.T, cfg Config, s sched.Schedule, machineMode bool) detectorSnapshot {
	t.Helper()
	var snap detectorSnapshot
	det, err := NewDetector(cfg, func(p procset.ID, out procset.Set) {
		snap.events = append(snap.events, outputEvent{proc: p, out: out})
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := sim.Config{N: cfg.N, Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) }}
	if machineMode {
		scfg.Machine = det.Machine
	} else {
		scfg.Algorithm = det.Algorithm
	}
	r, err := sim.NewRunner(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	for p := procset.ID(1); int(p) <= cfg.N; p++ {
		snap.outputs = append(snap.outputs, det.Output(p))
		snap.winners = append(snap.winners, det.Winnerset(p))
		snap.iters = append(snap.iters, det.Iterations(p))
	}
	return snap
}

func sameSnapshot(t *testing.T, label string, a, b detectorSnapshot) {
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
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("%s: output events diverge at %d: %+v vs %+v", label, i, a.events[i], b.events[i])
		}
	}
	for p := range a.outputs {
		if a.outputs[p] != b.outputs[p] || a.winners[p] != b.winners[p] || a.iters[p] != b.iters[p] {
			t.Fatalf("%s: final state of p%d differs: (%v,%v,%d) vs (%v,%v,%d)", label, p+1,
				a.outputs[p], a.winners[p], a.iters[p], b.outputs[p], b.winners[p], b.iters[p])
		}
	}
}

// TestMachineMatchesInstance is the port's contract: the direct-dispatch
// detector replays the coroutine detector bit for bit — identical StepInfo
// streams, identical output-change events, identical harness state — across
// configurations including the ablations, and at the matrix's widest
// detector with a crash inside a counter collect.
func TestMachineMatchesInstance(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"n4k2t2", Config{N: 4, K: 2, T: 2}},
		{"n5k2t3", Config{N: 5, K: 2, T: 3}},
		{"n3k1t1", Config{N: 3, K: 1, T: 1}},
		{"aggregate-min", Config{N: 4, K: 2, T: 2, Aggregate: AggregateMin}},
		{"aggregate-max", Config{N: 4, K: 2, T: 2, Aggregate: AggregateMax}},
		{"fixed-timeout", Config{N: 4, K: 2, T: 2, FixedTimeout: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.cfg.N, 1234, map[procset.ID]int{procset.ID(tc.cfg.N): 800})
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, 4000)
			coro := snapshotDetector(t, tc.cfg, s, false)
			mach := snapshotDetector(t, tc.cfg, s, true)
			sameSnapshot(t, tc.name, coro, mach)
		})
	}
	// n6k3t3 is the matrix's widest detector: 20 rows, a 120-read collect
	// per iteration, of which only accused rows change once timeouts grow.
	// p6 crashes after 2000 steps, inside its collect.
	t.Run("n6k3t3", func(t *testing.T) {
		t.Parallel()
		cfg := Config{N: 6, K: 3, T: 3}
		const crashAt = 2000
		src, err := sched.Random(cfg.N, 1234, map[procset.ID]int{6: crashAt})
		if err != nil {
			t.Fatal(err)
		}
		s := sched.Take(src, 30000)
		coro := snapshotDetector(t, cfg, s, false)
		mach := snapshotDetector(t, cfg, s, true)
		sameSnapshot(t, "n6k3t3", coro, mach)
		// Counter reads run row-major, so a crash inside the collect leaves
		// a counter read other than the row-last one as p6's last step.
		var last sim.StepInfo
		taken := 0
		for _, info := range mach.trace {
			if info.Proc == 6 {
				last = info
				taken++
			}
		}
		if taken != crashAt {
			t.Fatalf("p6 took %d steps, want its crash after %d", taken, crashAt)
		}
		if last.Kind != sim.OpRead || !strings.HasPrefix(last.Reg, "Counter[") || last.Reg == "Counter[19,6]" {
			t.Fatalf("p6's crash does not land inside a collect: its last step is %+v", last)
		}
	})
}

// TestMachineDetectorResetDeterminism pins the pooled path: a machine
// detector reused via Detector.Reset + Runner.Reset replays a fresh run.
func TestMachineDetectorResetDeterminism(t *testing.T) {
	t.Parallel()
	cfg := Config{N: 4, K: 2, T: 2}
	src, err := sched.Random(cfg.N, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 3000)
	fresh := snapshotDetector(t, cfg, s, true)

	var trace []sim.StepInfo
	var events []outputEvent
	det, err := NewDetector(cfg, func(p procset.ID, out procset.Set) {
		events = append(events, outputEvent{proc: p, out: out})
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{
		N:        cfg.N,
		Machine:  det.Machine,
		Observer: func(info sim.StepInfo) { trace = append(trace, info) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 2; round++ {
		trace, events = trace[:0], events[:0]
		det.Reset()
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		r.RunSchedule(s)
		reused := detectorSnapshot{trace: trace, events: events}
		for p := procset.ID(1); int(p) <= cfg.N; p++ {
			reused.outputs = append(reused.outputs, det.Output(p))
			reused.winners = append(reused.winners, det.Winnerset(p))
			reused.iters = append(reused.iters, det.Iterations(p))
		}
		sameSnapshot(t, "fresh vs pooled", fresh, reused)
	}
}

// TestMachineInstanceValidation covers the constructor's range checks.
func TestMachineInstanceValidation(t *testing.T) {
	t.Parallel()
	r, err := sim.NewRunner(sim.Config{N: 2, Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
		if _, err := NewMachineInstance(Config{N: 1, K: 1, T: 1}, p, regs); err == nil {
			t.Error("invalid config accepted")
		}
		if _, err := NewMachineInstance(Config{N: 2, K: 1, T: 1}, 5, regs); err == nil {
			t.Error("out-of-range self accepted")
		}
		m, err := NewMachineInstance(Config{N: 2, K: 1, T: 1}, p, regs)
		if err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
		return m
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestIntBoxes pins the boxing table: a value in range comes back as the
// same boxed int on every call, and a value outside it (negative, or as
// large as a Byzantine flip makes a counter) is boxed on its own without
// growing the table.
func TestIntBoxes(t *testing.T) {
	var b intBoxes
	first := b.box(300)
	if first != 300 {
		t.Fatalf("box(300) = %v", first)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if b.box(300) != first {
			t.Fatal("box(300) changed")
		}
	})
	if allocs != 0 {
		t.Errorf("a boxed value allocates %.1f times on reuse", allocs)
	}
	for _, v := range []int{-1, -1 << 40, boxMax, 1 << 40} {
		if got := b.box(v); got != v {
			t.Errorf("box(%d) = %v", v, got)
		}
	}
	if len(b.chunks) != 2 {
		t.Errorf("table holds %d chunks after boxing 300 and out-of-range values, want 2", len(b.chunks))
	}
}
