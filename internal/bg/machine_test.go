package bg

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// bgSnapshot is everything observable about one simulation run: the StepInfo
// stream and the final harness state.
type bgSnapshot struct {
	trace     []sim.StepInfo
	decisions []any
	adopted   []any
	schedule  sched.Schedule
	steps     []ThreadStep
}

func newWaitMin(t *testing.T, threads, f int) *WaitMinProtocol {
	t.Helper()
	inputs := make([]int, threads+1)
	for i := 1; i <= threads; i++ {
		inputs[i] = i * 10
	}
	proto, err := NewWaitMinProtocol(inputs, f)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// simForm selects which of the two equivalent simulator forms to run.
type simForm int

const (
	formCoroutine simForm = iota // the coroutine reference (Algorithm)
	formFused                    // the fused production automaton (Machine)
)

// simCase is one simulation configuration of the equivalence and golden
// tests.
type simCase struct {
	name       string
	m, threads int
	seed       int64
	steps      int
	crashes    map[procset.ID]int
}

// simCases spans simulator counts and crash patterns, including a simulator
// crashed before its first step.
var simCases = []simCase{
	{"m2t3", 2, 3, 5, 30_000, nil},
	{"m3t5", 3, 5, 77, 60_000, nil},
	{"m3t5-crashes", 3, 5, 77, 60_000, map[procset.ID]int{1: 300, 3: 800}},
	{"m4t4", 4, 4, 9, 40_000, map[procset.ID]int{2: 0}},
}

func snapshotSimulation(t *testing.T, m, threads int, s sched.Schedule, form simForm) bgSnapshot {
	t.Helper()
	simn, err := New(m, newWaitMin(t, threads, m-1))
	if err != nil {
		t.Fatal(err)
	}
	var snap bgSnapshot
	scfg := sim.Config{N: m, Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) }}
	if form == formFused {
		scfg.Machine = simn.Machine
	} else {
		scfg.Algorithm = simn.Algorithm
	}
	r, err := sim.NewRunner(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	return harvest(&snap, simn, m, threads)
}

func harvest(snap *bgSnapshot, simn *Simulation, m, threads int) bgSnapshot {
	for i := 1; i <= threads; i++ {
		v, _ := simn.ThreadDecision(i)
		snap.decisions = append(snap.decisions, v)
	}
	for p := 1; p <= m; p++ {
		v, _ := simn.AdoptedDecision(procset.ID(p))
		snap.adopted = append(snap.adopted, v)
	}
	snap.schedule = simn.SimulatedSchedule()
	snap.steps = simn.Steps()
	return *snap
}

func sameBGSnapshot(t *testing.T, label string, a, b bgSnapshot) {
	t.Helper()
	if len(a.trace) != len(b.trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		// Values carry snapshot segments (slices inside), so the comparison
		// must be deep rather than ==.
		if !reflect.DeepEqual(a.trace[i], b.trace[i]) {
			t.Fatalf("%s: StepInfo streams diverge at step %d:\n  %+v\n  %+v", label, i, a.trace[i], b.trace[i])
		}
	}
	for i := range a.decisions {
		if a.decisions[i] != b.decisions[i] {
			t.Fatalf("%s: thread %d decision differs: %v vs %v", label, i+1, a.decisions[i], b.decisions[i])
		}
	}
	for p := range a.adopted {
		if a.adopted[p] != b.adopted[p] {
			t.Fatalf("%s: simulator %d adoption differs: %v vs %v", label, p+1, a.adopted[p], b.adopted[p])
		}
	}
	if len(a.steps) != len(b.steps) {
		t.Fatalf("%s: resolution counts differ: %d vs %d", label, len(a.steps), len(b.steps))
	}
	for i := range a.steps {
		if a.steps[i] != b.steps[i] {
			t.Fatalf("%s: resolutions diverge at %d: %+v vs %+v", label, i, a.steps[i], b.steps[i])
		}
	}
	if a.schedule.String() != b.schedule.String() {
		t.Fatalf("%s: simulated schedules differ", label)
	}
}

// TestSimulationMachineMatchesAlgorithm is the port's contract: the
// direct-dispatch BG simulation replays the coroutine simulation bit for
// bit — identical StepInfo streams, thread decisions, adopted decisions, and
// simulated schedules — across simulator counts and crash patterns.
func TestSimulationMachineMatchesAlgorithm(t *testing.T) {
	t.Parallel()
	for _, tc := range simCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.m, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, tc.steps)
			coro := snapshotSimulation(t, tc.m, tc.threads, s, formCoroutine)
			mach := snapshotSimulation(t, tc.m, tc.threads, s, formFused)
			sameBGSnapshot(t, tc.name, coro, mach)
		})
	}
}

// TestSimulationMachineResetDeterminism pins the pooled path: a machine
// simulation reused via Simulation.Reset + Runner.Reset replays a fresh run
// bit for bit, twice.
func TestSimulationMachineResetDeterminism(t *testing.T) {
	t.Parallel()
	const m, threads = 3, 5
	src, err := sched.Random(m, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 40_000)
	fresh := snapshotSimulation(t, m, threads, s, formFused)

	simn, err := New(m, newWaitMin(t, threads, m-1))
	if err != nil {
		t.Fatal(err)
	}
	var snap bgSnapshot
	r, err := sim.NewRunner(sim.Config{
		N:        m,
		Machine:  simn.Machine,
		Observer: func(info sim.StepInfo) { snap.trace = append(snap.trace, info) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 2; round++ {
		snap = bgSnapshot{}
		simn.Reset()
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		r.RunSchedule(s)
		reused := harvest(&snap, simn, m, threads)
		sameBGSnapshot(t, fmt.Sprintf("fresh vs reuse round %d", round), fresh, reused)
	}
}

// snapshotSimulationRecycled runs the machine simulation with no observer —
// the recycled configuration (epoch arena, leased views, register-group
// reuse) — and harvests the harness-visible outcome. There is no StepInfo
// stream to compare on this path; the observable contract is the harness
// state, which must match the observed (allocate-per-write) run bit for
// bit.
func snapshotSimulationRecycled(t *testing.T, m, threads int, s sched.Schedule) bgSnapshot {
	t.Helper()
	simn, err := New(m, newWaitMin(t, threads, m-1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: m, Machine: simn.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	var snap bgSnapshot
	return harvest(&snap, simn, m, threads)
}

// sameBGOutcome compares everything but the traces (the recycled path has
// none).
func sameBGOutcome(t *testing.T, label string, a, b bgSnapshot) {
	t.Helper()
	a.trace, b.trace = nil, nil
	sameBGSnapshot(t, label, a, b)
}

// TestSimulationMachineRecycledMatchesObserved pins that the recycler is a
// pure memory-plane change: the recycled run (no observer — arena, leased
// views, register groups) reaches exactly the observed run's thread
// decisions, adoptions, resolutions, and simulated schedules, across crash
// patterns.
func TestSimulationMachineRecycledMatchesObserved(t *testing.T) {
	t.Parallel()
	for _, tc := range simCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.m, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, tc.steps)
			observed := snapshotSimulation(t, tc.m, tc.threads, s, formFused)
			recycled := snapshotSimulationRecycled(t, tc.m, tc.threads, s)
			sameBGOutcome(t, tc.name, observed, recycled)
		})
	}
}

// TestSimulationMachineRecycledResetReuse pins the pooled recycled path: a
// recycled runner stopped mid-run, Reset, and replayed in full must match a
// fresh recycled run — the campaign pool's exact reuse pattern, with the
// arena and register-group pool bulk-recycling across jobs.
func TestSimulationMachineRecycledResetReuse(t *testing.T) {
	t.Parallel()
	const m, threads = 3, 5
	src, err := sched.Random(m, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 40_000)
	fresh := snapshotSimulationRecycled(t, m, threads, s)

	simn, err := New(m, newWaitMin(t, threads, m-1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: m, Machine: simn.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Leave the first job stopped mid-run, scans in flight.
	r.RunSchedule(s[:4321])
	for round := 0; round < 2; round++ {
		simn.Reset()
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		r.RunSchedule(s)
		var snap bgSnapshot
		reused := harvest(&snap, simn, m, threads)
		sameBGOutcome(t, fmt.Sprintf("fresh vs reuse round %d", round), fresh, reused)
	}
}
