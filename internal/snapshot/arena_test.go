package snapshot

import (
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// recordedView is one completed scan's result, cloned at consumption time
// (recycled views are reused, so retaining them verbatim would be a
// contract violation — the clone is the legal synchronous consumption).
type recordedView struct {
	Proc procset.ID
	Seqs []int
	Vals []any
}

func cloneRecord(p procset.ID, v View) recordedView {
	return recordedView{
		Proc: p,
		Seqs: append([]int(nil), v.Seqs...),
		Vals: append([]any(nil), v.Vals...),
	}
}

// recUpdScanMachine alternates Update and Scan through FusedCall, recording
// every completed scan into the shared log — the machine twin of
// recAlgorithm.
type recUpdScanMachine struct {
	o       *MachineObject
	self    procset.ID
	log     *[]recordedView
	call    *FusedCall
	inScan  bool
	seq     int
	started bool
}

func (m *recUpdScanMachine) Next(prev any) (sim.Op, bool) {
	if !m.started {
		m.started = true
		m.seq++
		m.call = m.o.NewFusedUpdate(m.seq * 100)
		return *m.call.Start(), true
	}
	if op := m.call.Feed(prev); op != nil {
		return *op, true
	}
	if m.inScan {
		*m.log = append(*m.log, cloneRecord(m.self, m.call.Result()))
		m.seq++
		m.call, m.inScan = m.o.NewFusedUpdate(m.seq*100), false
	} else {
		m.call, m.inScan = m.o.NewFusedScan(), true
	}
	return *m.call.Start(), true
}

// recAlgorithm is the coroutine reference of the same workload, running on
// the allocate-per-write path.
func recAlgorithm(log *[]recordedView) func(procset.ID) sim.Algorithm {
	return func(p procset.ID) sim.Algorithm {
		return func(env sim.Env) {
			o := New(env, "obj")
			seq := 0
			for {
				seq++
				o.Update(seq * 100)
				*log = append(*log, cloneRecord(p, o.Scan()))
			}
		}
	}
}

// runRecorded drives the workload over a fixed schedule in the requested
// mode and returns the scan log (and, in machine mode, the runner's arena).
func runRecorded(t *testing.T, n int, s sched.Schedule, machineMode bool) ([]recordedView, *Arena) {
	t.Helper()
	var (
		log   []recordedView
		arena *Arena
	)
	cfg := sim.Config{N: n}
	if machineMode {
		cfg.Machine = func(p procset.ID, regs sim.Registry) sim.Machine {
			if arena == nil {
				arena = ArenaFor(regs)
			}
			return &recUpdScanMachine{o: NewMachineObject(regs, "obj", p, n), self: p, log: &log}
		}
	} else {
		cfg.Algorithm = recAlgorithm(&log)
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	return log, arena
}

// TestRecycledMachineMatchesCoroutine pins the recycler's core contract on
// the snapshot substrate itself: a recycled machine run returns, scan for
// scan, exactly the views of the allocate-per-write coroutine run on the
// same schedule — including borrowed embedded views surviving epoch
// advances and crashed writers freezing scans while holding leases.
func TestRecycledMachineMatchesCoroutine(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		n       int
		seed    int64
		steps   int
		crashes map[procset.ID]int
	}{
		{"n3-contended", 3, 11, 40_000, nil},
		{"n4", 4, 5, 60_000, nil},
		{"n3-crash-midstream", 3, 11, 40_000, map[procset.ID]int{2: 137}},
		{"n4-two-crashes", 4, 7, 60_000, map[procset.ID]int{1: 53, 4: 999}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.n, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, tc.steps)
			coro, _ := runRecorded(t, tc.n, s, false)
			mach, arena := runRecorded(t, tc.n, s, true)
			if arena == nil {
				t.Fatal("machine run did not get an arena (recycling disabled?)")
			}
			if len(coro) != len(mach) {
				t.Fatalf("scan counts differ: coroutine %d vs machine %d", len(coro), len(mach))
			}
			for i := range coro {
				if !reflect.DeepEqual(coro[i], mach[i]) {
					t.Fatalf("scan %d differs:\n  coroutine %+v\n  machine   %+v", i, coro[i], mach[i])
				}
			}
			st := arena.Stats()
			if st.Reclaimed == 0 {
				t.Error("arena reclaimed nothing on a contended run")
			}
			if st.SegmentsReused == 0 {
				t.Error("arena reused no segments on a contended run")
			}
		})
	}
}

// TestRecycledMachineBorrowPinning forces borrowed embedded views (an
// updater doubly moving inside another updater's embedded scan) and checks
// the pin counter moved — the lease-retention path that lets a borrowed
// view outlive both its scan and the borrowed-from segment.
func TestRecycledMachineBorrowPinning(t *testing.T) {
	t.Parallel()
	src, err := sched.Random(3, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 40_000)
	_, arena := runRecorded(t, 3, s, true)
	if st := arena.Stats(); st.Pins == 0 {
		t.Errorf("no embedded view was pinned across a 40k-step contended run: %+v", st)
	}
}

// TestRecycledMachineCrashedScanDrops pins the retired-queue safety valve: a
// writer crashed mid-run freezes its scan ticket forever, reclamation
// stalls, and the arena must degrade to dropping retired segments to the GC
// (never reusing them) instead of growing without bound — while the
// surviving processes' views stay exactly those of the reference run.
func TestRecycledMachineCrashedScanDrops(t *testing.T) {
	t.Parallel()
	// Crash p3 mid-scan; run far past the retired-queue cap.
	crashes := map[procset.ID]int{3: 41}
	src, err := sched.Random(3, 3, crashes)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 400_000)
	coro, _ := runRecorded(t, 3, s, false)
	mach, arena := runRecorded(t, 3, s, true)
	if len(coro) != len(mach) {
		t.Fatalf("scan counts differ: coroutine %d vs machine %d", len(coro), len(mach))
	}
	for i := range coro {
		if !reflect.DeepEqual(coro[i], mach[i]) {
			t.Fatalf("scan %d differs under a crashed writer", i)
		}
	}
	st := arena.Stats()
	if st.Dropped == 0 {
		t.Errorf("expected the retired-queue cap to drop segments under a frozen scan; stats %+v", st)
	}
}

// TestRecycledMachineResetMidScan pins pool reuse after mid-run stops: a
// runner stopped mid-scan and Reset must replay a full run identically to a
// fresh runner, with the arena bulk-reclaiming everything the stop left in
// flight.
func TestRecycledMachineResetMidScan(t *testing.T) {
	t.Parallel()
	const n, steps = 3, 30_000
	src, err := sched.Random(n, 23, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, steps)
	fresh, _ := runRecorded(t, n, s, true)

	var (
		log   []recordedView
		arena *Arena
	)
	r, err := sim.NewRunner(sim.Config{N: n, Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
		if arena == nil {
			arena = ArenaFor(regs)
		}
		return &recUpdScanMachine{o: NewMachineObject(regs, "obj", p, n), self: p, log: &log}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Stop mid-run (virtually certainly mid-scan for some process), then
	// Reset and replay in full, twice.
	r.RunSchedule(s[:137])
	for round := 0; round < 2; round++ {
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		log = log[:0]
		r.RunSchedule(s)
		if len(log) != len(fresh) {
			t.Fatalf("round %d: scan counts differ: fresh %d vs reused %d", round, len(fresh), len(log))
		}
		for i := range fresh {
			if !reflect.DeepEqual(fresh[i], log[i]) {
				t.Fatalf("round %d: scan %d differs after Reset reuse", round, i)
			}
		}
	}
	if st := arena.Stats(); st.Resets != 2 {
		t.Errorf("arena saw %d bulk resets, want 2", st.Resets)
	}
}

// haltingUpdaterMachine performs a fixed number of updates and halts — the
// shape that lets its final segment retire while a concurrent scan still
// borrows from it, with no later ticket of its own to block reclamation.
type haltingUpdaterMachine struct {
	o       *MachineObject
	call    *FusedCall
	left    int
	started bool
}

func (m *haltingUpdaterMachine) Next(prev any) (sim.Op, bool) {
	if m.started {
		if op := m.call.Feed(prev); op != nil {
			return *op, true
		}
		if m.left == 0 {
			return sim.Op{}, false
		}
	}
	m.started = true
	m.left--
	m.call = m.o.NewFusedUpdate(m.left)
	return *m.call.Start(), true
}

// scanOnlyMachine scans forever, recording every completed (non-owned)
// result — the consumer whose borrowed or shared views must survive until
// it reads them.
type scanOnlyMachine struct {
	o       *MachineObject
	self    procset.ID
	log     *[]recordedView
	call    *FusedCall
	started bool
}

func (m *scanOnlyMachine) Next(prev any) (sim.Op, bool) {
	if m.started {
		if op := m.call.Feed(prev); op != nil {
			return *op, true
		}
		*m.log = append(*m.log, cloneRecord(m.self, m.call.Result()))
	}
	m.started = true
	m.call = m.o.NewFusedScan()
	return *m.call.Start(), true
}

// TestRecycledNonOwnedResultSurvivesEndScan is the regression test for the
// use-after-free the first review of PR 5 caught: closing a scan's epoch
// ticket at completion allowed the reclaim running inside EndScan to free
// a borrowed-from segment (or a collected payload) before the caller read
// the non-owned Result. The halting writer is essential: its last write
// retires a segment that a concurrent scan borrows, and it opens no later
// ticket of its own. The sweep compares the recycled machine run against
// the coroutine reference, scan for scan, over many interleavings.
func TestRecycledNonOwnedResultSurvivesEndScan(t *testing.T) {
	t.Parallel()
	const n, updates, steps = 2, 4, 64
	// The crafted schedule hits the window deterministically: p2's third
	// collect reads p1's segment S3, then p1's final update retires S3 and
	// halts (closing its own ticket forever), and p2's completing read
	// borrows S3's embedded view with no ticket left to protect it — the
	// moment the PR-5 review's repro caught the reclaim zeroing the lease.
	crafted := make(sched.Schedule, 0, 32)
	block := func(p procset.ID, k int) {
		for i := 0; i < k; i++ {
			crafted = append(crafted, p)
		}
	}
	block(1, 6) // update 1 → S1
	block(2, 2) // p2 collect 1: reads S1, zero
	block(1, 6) // update 2 → S2 (S1 retired)
	block(2, 2) // p2 collect 2: sees S2 — moved once
	block(1, 6) // update 3 → S3 (S2 retired)
	block(2, 1) // p2 collect 3, first read: S3
	block(1, 6) // update 4 → S4 (S3 retired); p1 halts, no open ticket
	block(2, 3) // p2 completes: doubly-moved → borrows S3's embedded view
	schedules := []sched.Schedule{crafted}
	for seed := int64(0); seed < 400; seed++ {
		src, err := sched.Random(n, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		schedules = append(schedules, sched.Take(src, steps))
	}
	for si, s := range schedules {

		var coro []recordedView
		coroRunner, err := sim.NewRunner(sim.Config{N: n, Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := New(env, "obj")
				if p == 1 {
					for i := updates - 1; i >= 0; i-- {
						o.Update(i)
					}
					return
				}
				for {
					coro = append(coro, cloneRecord(p, o.Scan()))
				}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		coroRunner.RunSchedule(s)
		coroRunner.Close()

		var mach []recordedView
		machRunner, err := sim.NewRunner(sim.Config{N: n, Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
			o := NewMachineObject(regs, "obj", p, n)
			if p == 1 {
				return &haltingUpdaterMachine{o: o, left: updates}
			}
			return &scanOnlyMachine{o: o, self: p, log: &mach}
		}})
		if err != nil {
			t.Fatal(err)
		}
		machRunner.RunSchedule(s)
		machRunner.Close()

		if len(coro) != len(mach) {
			t.Fatalf("schedule %d: scan counts differ: coroutine %d vs machine %d", si, len(coro), len(mach))
		}
		for i := range coro {
			if !reflect.DeepEqual(coro[i], mach[i]) {
				t.Fatalf("schedule %d: scan %d differs:\n  coroutine %+v\n  machine   %+v", si, i, coro[i], mach[i])
			}
		}
	}
}
