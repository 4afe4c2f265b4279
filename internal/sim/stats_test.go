package sim

import (
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// haltAfterMachine reads the counter a fixed number of times and halts, so
// tests can provoke no-op steps.
func haltAfterMachine(reads int) func(procset.ID, Registry) Machine {
	return func(_ procset.ID, regs Registry) Machine {
		read := ReadOp(regs.Reg("counter"))
		left := reads
		return MachineFunc(func(any) *Op {
			if left == 0 {
				return nil
			}
			left--
			return &read
		})
	}
}

// TestStatsCountOpsByKind pins the counter semantics on every execution
// path: the same schedule on the Step loop, the batched loop, and the
// coroutine path yields identical Stats, with Steps = Reads+Writes+Noops.
func TestStatsCountOpsByKind(t *testing.T) {
	t.Parallel()
	const n, steps = 4, 4096
	schedule := func() sched.Source {
		src, err := sched.Random(n, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	want := Stats{}
	{
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		src := schedule()
		for i := 0; i < steps; i++ {
			r.Step(src.Next())
		}
		want = r.Stats()
	}
	if want.Steps != steps || want.Reads+want.Writes+want.Noops != want.Steps {
		t.Fatalf("step-loop stats inconsistent: %+v", want)
	}
	if want.Reads == 0 || want.Writes == 0 {
		t.Fatalf("counter workload should read and write: %+v", want)
	}

	{
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.Run(schedule(), steps, 0, nil)
		if got := r.Stats(); got != want {
			t.Errorf("batched stats = %+v, want %+v", got, want)
		}
	}
	{
		r := newTestRunner(t, n, func(procset.ID) Algorithm { return counterAlgo })
		r.Run(schedule(), steps, 0, nil)
		if got := r.Stats(); got != want {
			t.Errorf("coroutine stats = %+v, want %+v", got, want)
		}
	}
}

// TestStatsNoopsAndReset pins no-op counting on halted automata and the
// Reset contract (counters revert with Steps; registers gauge survives).
func TestStatsNoopsAndReset(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: haltAfterMachine(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := sched.RoundRobin(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(src, 10, 0, nil)
	got := r.Stats()
	want := Stats{Steps: 10, Reads: 6, Noops: 4, Registers: 1}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	got = r.Stats()
	want = Stats{Registers: 1}
	if got != want {
		t.Fatalf("stats after Reset = %+v, want %+v", got, want)
	}
}

// TestStatsDirectedMatchesBatch pins that the directed loop counts exactly
// like the batched loop on the same effective schedule.
func TestStatsDirectedMatchesBatch(t *testing.T) {
	t.Parallel()
	const n, steps = 3, 999
	build := func() *Runner {
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	rb := build()
	src, err := sched.RoundRobin(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb.Run(src, steps, 0, nil)

	rd := build()
	rd.RunDirected(roundRobinDirector{n: n, next: new(int)}, steps, 0, nil)
	if got, want := rd.Stats(), rb.Stats(); got != want {
		t.Errorf("directed stats = %+v, batched = %+v", got, want)
	}
}

type roundRobinDirector struct {
	n    int
	next *int
}

func (d roundRobinDirector) Next() procset.ID {
	p := procset.ID(*d.next%d.n + 1)
	*d.next++
	return p
}

func (d roundRobinDirector) OnWrite(RegID, procset.ID, any) {}

// TestStatsAddSub covers the snapshot algebra used by campaign aggregation.
func TestStatsAddSub(t *testing.T) {
	t.Parallel()
	a := Stats{Steps: 10, Reads: 6, Writes: 3, Noops: 1, Registers: 2}
	b := Stats{Steps: 4, Reads: 2, Writes: 1, Noops: 1, Registers: 5}
	sum := a.Add(b)
	if want := (Stats{Steps: 14, Reads: 8, Writes: 4, Noops: 2, Registers: 5}); sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
	if got := sum.Sub(b); got != (Stats{Steps: 10, Reads: 6, Writes: 3, Noops: 1, Registers: 5}) {
		t.Errorf("Sub = %+v", got)
	}
}

// TestBatchMetricsDisabledAllocs is the observability plane's zero-overhead
// guard at the engine level: with metrics compiled in but nothing attached
// (no observer, no flight recorder), the batched machine loop allocates
// nothing per block of steps. The BG-write counterpart lives in
// internal/snapshot (TestBGWriteSteadyStateAllocs).
func TestBatchMetricsDisabledAllocs(t *testing.T) {
	// A ping machine rather than the counter: the counter's growing int
	// boxes a fresh interface value per write (a workload allocation the
	// arena exists to kill for real protocols), which would mask what this
	// test isolates — allocations introduced by the metrics plumbing.
	ping := func(_ procset.ID, regs Registry) Machine {
		c := regs.Reg("counter")
		read, write := ReadOp(c), WriteOp(c, 7) // constant: boxing never allocates
		reading := true
		return MachineFunc(func(any) *Op {
			reading = !reading
			if !reading {
				return &read
			}
			return &write
		})
	}
	r, err := NewRunner(Config{N: 4, Machine: ping})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := sched.RoundRobin(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past machine starts.
	r.Run(src, 1024, 0, nil)
	avg := testing.AllocsPerRun(100, func() {
		r.Run(src, 1024, 0, nil)
	})
	if avg != 0 {
		t.Errorf("RunBatch with metrics compiled in but disabled allocates %.2f/run, want 0", avg)
	}
	if s := r.Stats(); s.Steps == 0 || s.Reads == 0 || s.Writes == 0 {
		t.Errorf("counters did not accumulate: %+v", s)
	}
}

// TestFlightRecorderRing pins the ring semantics: last K steps, oldest
// first, registers resolvable, no-ops marked, runs unaffected.
func TestFlightRecorderRing(t *testing.T) {
	t.Parallel()
	const n, steps, k = 2, 10, 8
	run := func(fr *FlightRecorder) Stats {
		r, err := NewRunner(Config{N: n, Machine: haltAfterMachine(3)})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.SetFlightRecorder(fr)
		src, err := sched.RoundRobin(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(src, steps, 0, nil)
		if fr != nil {
			var sb strings.Builder
			fr.Dump(&sb, r)
			if !strings.Contains(sb.String(), "noop") || !strings.Contains(sb.String(), "counter") {
				t.Errorf("dump missing expected entries:\n%s", sb.String())
			}
		}
		return r.Stats()
	}

	fr := NewFlightRecorder(k)
	withRec := run(fr)
	plain := run(nil)
	if withRec != plain {
		t.Errorf("recorder changed the run: %+v vs %+v", withRec, plain)
	}
	recs := fr.Records()
	if len(recs) != k {
		t.Fatalf("retained %d records, want %d", len(recs), k)
	}
	kinds := map[OpKind]int{}
	for i, rec := range recs {
		if want := steps - k + i; rec.Index != want {
			t.Errorf("record %d has index %d, want %d", i, rec.Index, want)
		}
		kinds[rec.Kind]++
	}
	// The ring spans the halt boundary: reads before, no-ops after.
	if kinds[OpRead] == 0 || kinds[OpNoop] == 0 {
		t.Errorf("ring should mix reads and noops, got %v", kinds)
	}
	fr.Reset()
	if fr.Len() != 0 {
		t.Errorf("Len after Reset = %d", fr.Len())
	}
}

// TestFlightRecorderDirected pins recording on the directed fast path and
// partial rings (fewer steps than capacity).
func TestFlightRecorderDirected(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 3, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fr := NewFlightRecorder(64)
	r.SetFlightRecorder(fr)
	r.RunDirected(roundRobinDirector{n: 3, next: new(int)}, 10, 0, nil)
	recs := fr.Records()
	if len(recs) != 10 {
		t.Fatalf("retained %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Errorf("record %d has index %d", i, rec.Index)
		}
		if got := r.RegName(rec.Reg); got != "counter" {
			t.Errorf("record %d register = %q", i, got)
		}
	}
}

// TestRecyclerStatsSurfacesGauges checks the StatsSource plumbing with a
// stub recycler (the real arena's gauges are covered in internal/snapshot).
func TestRecyclerStatsSurfacesGauges(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: func(_ procset.ID, regs Registry) Machine {
		host := regs.(RecyclerHost)
		host.Recycler("stub", func() any { return &stubStatsSource{} })
		return haltAfterMachine(1)(1, regs)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := map[string]int64{}
	r.RecyclerStats(dst)
	if dst["stub.gauge"] != 42 {
		t.Errorf("RecyclerStats = %v, want stub.gauge=42", dst)
	}
}

type stubStatsSource struct{}

func (*stubStatsSource) StatsInto(dst map[string]int64) { dst["stub.gauge"] = 42 }
