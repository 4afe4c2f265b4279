package obs_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// mustMonitor builds a full-family monitor or fails the test.
func mustMonitor(t *testing.T, cfg obs.MonitorConfig) *obs.Monitor {
	t.Helper()
	m, err := obs.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkAgainstBatch is checkPrefix for a monitor of the whole family,
// probed with bound 4.
func checkAgainstBatch(t *testing.T, m *obs.Monitor, s sched.Schedule, n int) {
	t.Helper()
	checkPrefix(t, m, obs.MonitorConfig{N: n}, s, 4)
}

// checkPrefix compares every query of m with the batch extractor on s, the
// prefix m has observed so far: MaxQGap, MinBound and IsTimely for every
// tracked pair, Best and InSystem for every tracked class, and Graph with
// the probed bound. It also requires sched.IsTimely to agree with its own
// full scan, MaxQGap < bound, and obs.HeldClasses to equal sched.InSystem
// on every class of the family at each bound checked, and at bound −1.
// This is the plane's core contract: online answers are bit-identical to
// sched's offline ones on the same prefix.
func checkPrefix(t *testing.T, m *obs.Monitor, cfg obs.MonitorConfig, s sched.Schedule, bound int) {
	t.Helper()
	n := cfg.N
	if m.Steps() != len(s) {
		t.Fatalf("Steps() = %d, want %d", m.Steps(), len(s))
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = fuzzSizes(n, ^uint32(0))
	}
	bounds := []int{bound, 0, 1, 2, 3, 4, 5, 6}
	for _, ij := range sizes {
		i, j := ij[0], ij[1]
		for _, p := range procset.KSubsets(n, i) {
			for _, q := range procset.KSubsets(n, j) {
				want := sched.MaxQGap(s, p, q)
				if got := m.MaxQGap(p, q); got != want {
					t.Fatalf("after %d steps: MaxQGap(%v,%v) = %d, batch says %d", len(s), p, q, got, want)
				}
				if got, w := m.MinBound(p, q), sched.MinBound(s, p, q); got != w {
					t.Fatalf("after %d steps: MinBound(%v,%v) = %d, batch says %d", len(s), p, q, got, w)
				}
				for _, b := range append(bounds, want, want+1) {
					batch := sched.IsTimely(s, p, q, b)
					if scan := b >= 1 && want < b; batch != scan {
						t.Fatalf("after %d steps: sched.IsTimely(%v,%v,%d) = %v, but MaxQGap = %d", len(s), p, q, b, batch, want)
					}
					if got := m.IsTimely(p, q, b); got != batch {
						t.Fatalf("after %d steps: IsTimely(%v,%v,%d) = %v, batch says %v", len(s), p, q, b, got, batch)
					}
				}
			}
		}
		if got, want := m.Best(i, j), sched.BestPair(s, n, i, j); got != want {
			t.Fatalf("after %d steps: Best(%d,%d) = %+v, batch says %+v", len(s), i, j, got, want)
		}
		for _, b := range bounds {
			if got, want := m.InSystem(i, j, b), sched.InSystem(s, n, i, j, b); got != want {
				t.Fatalf("after %d steps: InSystem(%d,%d,%d) = %v, batch says %v", len(s), i, j, b, got, want)
			}
		}
	}
	graph := m.Graph(bound)
	if len(graph) != len(sizes) {
		t.Fatalf("Graph has %d rows, want %d", len(graph), len(sizes))
	}
	// i > j is outside the family for both sides.
	if n >= 2 && m.InSystem(2, 1, 100) {
		t.Fatal("InSystem(2,1,·) must be false (family requires i ≤ j)")
	}
	for k, row := range graph {
		best := sched.BestPair(s, n, sizes[k][0], sizes[k][1])
		if row.I != sizes[k][0] || row.J != sizes[k][1] || row.Best != best || row.MinBound != best.MinBound ||
			row.BestP != best.P.String() || row.BestQ != best.Q.String() {
			t.Fatalf("after %d steps: Graph row %d = %+v, batch best %+v", len(s), k, row, best)
		}
		if want := sched.InSystem(s, n, row.I, row.J, bound); row.Held != want {
			t.Fatalf("after %d steps: Graph row S^%d_%d held = %v, sched.InSystem says %v", len(s), row.I, row.J, row.Held, want)
		}
	}
	// HeldClasses decides the whole family, whatever m tracks.
	for _, b := range append(bounds, -1) {
		checkHeld(t, s, n, b)
	}
}

// mustSource builds one of the test generators by kind.
func mustSource(t *testing.T, kind string, n int, seed int64) sched.Source {
	t.Helper()
	var (
		src sched.Source
		err error
	)
	switch kind {
	case "roundrobin":
		src, err = sched.RoundRobin(n, map[procset.ID]int{1: 3})
	case "random":
		src, err = sched.Random(n, seed, nil)
	case "random-crash":
		src, err = sched.Random(n, seed, map[procset.ID]int{procset.ID(n): 7})
	case "starver":
		src, err = sched.RotatingStarver(n, 1+int(uint64(seed)%uint64(n-1)), 1)
	case "figure1":
		src, err = sched.Figure1(n, 1, 2, 3)
	case "system":
		src, _, err = sched.System(n, 1, 2, 3, seed, nil)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// The monitor agrees with the batch extractor on every query, across every
// generator family the repo ships.
func TestMonitorMatchesBatchExtractor(t *testing.T) {
	const n, steps = 4, 600
	for _, kind := range []string{"roundrobin", "random", "random-crash", "starver", "figure1", "system"} {
		t.Run(kind, func(t *testing.T) {
			s := sched.Take(mustSource(t, kind, n, 99), steps)
			m := mustMonitor(t, obs.MonitorConfig{N: n})
			m.ObserveBlock(s)
			if m.Steps() != steps {
				t.Fatalf("Steps() = %d, want %d", m.Steps(), steps)
			}
			checkAgainstBatch(t, m, s, n)
		})
	}
}

// Agreement holds at every prefix, not just at the end: the monitor is fed
// step by step and checked at irregular checkpoints, which is exactly how a
// live run queries it.
func TestMonitorIncrementalPrefixes(t *testing.T) {
	const n = 4
	s := sched.Take(mustSource(t, "random", n, 7), 500)
	m := mustMonitor(t, obs.MonitorConfig{N: n})
	checkpoints := map[int]bool{1: true, 2: true, 17: true, 100: true, 255: true, 256: true, 257: true, 499: true, 500: true}
	for idx, p := range s {
		m.Observe(p)
		if checkpoints[idx+1] {
			checkAgainstBatch(t, m, s[:idx+1], n)
		}
	}
}

// Fuzz over seeds, generator families, and prefix lengths. Deterministic
// (the loop is the fuzzer) so CI failures reproduce.
func TestMonitorFuzzEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short")
	}
	kinds := []string{"random", "random-crash", "starver", "system"}
	for _, n := range []int{2, 3, 5} {
		for seed := int64(0); seed < 6; seed++ {
			kind := kinds[int(seed)%len(kinds)]
			steps := 50 + int(uint64(seed*2654435761)%1500)
			s := sched.Take(mustSource(t, kind, n, seed+1), steps)
			m := mustMonitor(t, obs.MonitorConfig{N: n})
			// Feed in uneven blocks to exercise ObserveBlock boundaries.
			for len(s) > 0 {
				k := 1 + int(uint64(len(s)*31+int(seed))%97)
				if k > len(s) {
					k = len(s)
				}
				m.ObserveBlock(s[:k])
				s = s[k:]
			}
			full := sched.Take(mustSource(t, kind, n, seed+1), steps)
			checkAgainstBatch(t, m, full, n)
		}
	}
}

// Reset returns the monitor to a fresh state without reallocation.
func TestMonitorReset(t *testing.T) {
	const n = 3
	m := mustMonitor(t, obs.MonitorConfig{N: n})
	m.ObserveBlock(sched.Take(mustSource(t, "random", n, 5), 200))
	m.Reset()
	if m.Steps() != 0 {
		t.Fatal("Reset left observed state behind")
	}
	s := sched.Take(mustSource(t, "starver", n, 2), 150)
	m.ObserveBlock(s)
	checkAgainstBatch(t, m, s, n)
}

// ids reads a schedule written one process ID per digit, blanks ignored.
func ids(steps string) sched.Schedule {
	var s sched.Schedule
	for _, c := range steps {
		if c != ' ' {
			s = append(s, procset.ID(c-'0'))
		}
	}
	return s
}

// The monitor keeps one count snapshot per process: P's open window starts
// at the snapshot of P's most recently stamped member, the one that took
// P's last step. These shapes make that member differ from the one whose
// step closes the window, and every tracked pair's MaxQGap must equal
// sched.MaxQGap after every single step:
//   - after a warm-up that sets every threshold above 0, process 1 runs
//     solo past the thresholds of the P's without it, and then a member of
//     those P's that did not take their last step closes their windows;
//   - a Sizes restriction that tracks only large P's, whose windows are
//     short and mostly skip the fold;
//   - a Reset after a partial feed, after which no process may read a
//     snapshot left over from the first feed.
func TestMonitorSnapshotPaths(t *testing.T) {
	cases := []struct {
		name    string
		cfg     obs.MonitorConfig
		partial string // fed, then Reset, before steps
		steps   string
	}{
		{"solo-then-other-member", obs.MonitorConfig{N: 4}, "",
			"1234 4321 1234 11111111111 2 3 4 1 33 2 11111 4 2 1 333333 4 1 2 1"},
		{"large-ps-only", obs.MonitorConfig{N: 5, Sizes: [][2]int{{3, 5}, {4, 4}, {4, 5}}}, "",
			"12345 54321 5 1 555 2 3 4 5 1 5555 3 4 2 5 1 2 3 4 44 1 2 3 555 5"},
		{"reset-after-partial-feed", obs.MonitorConfig{N: 4}, "1234 4 11 3",
			"333 2 4 1 22 3 4 1 2 44 1 3 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mustMonitor(t, c.cfg)
			if c.partial != "" {
				m.ObserveBlock(ids(c.partial))
				m.Reset()
			}
			sizes := c.cfg.Sizes
			if len(sizes) == 0 {
				sizes = fuzzSizes(c.cfg.N, ^uint32(0))
			}
			s := ids(c.steps)
			for end := 1; end <= len(s); end++ {
				m.Observe(s[end-1])
				for _, ij := range sizes {
					for _, p := range procset.KSubsets(c.cfg.N, ij[0]) {
						for _, q := range procset.KSubsets(c.cfg.N, ij[1]) {
							if got, want := m.MaxQGap(p, q), sched.MaxQGap(s[:end], p, q); got != want {
								t.Fatalf("after %d steps: MaxQGap(%v,%v) = %d, batch says %d", end, p, q, got, want)
							}
						}
					}
				}
			}
			checkPrefix(t, m, c.cfg, s, 4)
		})
	}
}

// Four ways of feeding one schedule leave the same tables, each equal to
// the batch extractor's on every prefix checked (checkPrefix) and to one
// another's Graph:
//   - one Observe per step;
//   - ObserveBlock over uneven splits;
//   - Reset after a long feed of another schedule, then a replay: the long
//     feed raised every threshold and the per-process skip bounds, so a
//     skip bound kept across Reset would skip the replay's early folds;
//   - two monitors of the same configuration, which share one layout, fed
//     block by block in turn.
func TestMonitorFeedEquivalence(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		cfg := obs.MonitorConfig{N: n}
		s := mixedSchedule(t, n, int64(n)+11, 1200-100*n)
		perStep, split, reset, a, b := mustMonitor(t, cfg), mustMonitor(t, cfg), mustMonitor(t, cfg), mustMonitor(t, cfg), mustMonitor(t, cfg)
		reset.ObserveBlock(mixedSchedule(t, n, 99, 20_000))
		reset.Reset()
		done := 0
		for k, end := range []int{1, 37, len(s) / 2, len(s)} {
			for _, p := range s[done:end] {
				perStep.Observe(p)
			}
			for lo, c := done, 0; lo < end; c++ {
				hi := min(lo+1+(c*c*7+k)%67, end)
				split.ObserveBlock(s[lo:hi])
				reset.ObserveBlock(s[lo:hi])
				a.ObserveBlock(s[lo:hi])
				b.ObserveBlock(s[lo:hi])
				lo = hi
			}
			done = end
			want := perStep.Graph(4)
			for name, m := range map[string]*obs.Monitor{"per-step": perStep, "split": split, "reset": reset, "shared-a": a, "shared-b": b} {
				checkPrefix(t, m, cfg, s[:end], 4)
				if got := m.Graph(4); !slices.Equal(got, want) {
					t.Fatalf("n=%d %s after %d steps: Graph %+v, one Observe per step gives %+v", n, name, end, got, want)
				}
			}
		}
	}
}

// Monitors built on several goroutines at once share each full family's
// layout, built by whichever comes first (when this test runs first in its
// process); fed and queried concurrently, each must give the Graph of one
// monitor on its own. Run it under -race.
func TestMonitorsShareLayoutAcrossGoroutines(t *testing.T) {
	const steps, workers = 3000, 8
	graphs := make([][]obs.SystemStatus, workers)
	var wg sync.WaitGroup
	for g := range graphs {
		n := 2 + g%5
		s := mixedSchedule(t, n, 13, steps)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := obs.NewMonitor(obs.MonitorConfig{N: n})
			if err != nil {
				t.Error(err)
				return
			}
			for lo := 0; lo < len(s); lo += 100 {
				m.ObserveBlock(s[lo:min(lo+100, len(s))])
				m.Graph(4)
			}
			graphs[g] = m.Graph(4)
		}()
	}
	wg.Wait()
	for g, got := range graphs {
		n := 2 + g%5
		m := mustMonitor(t, obs.MonitorConfig{N: n})
		m.ObserveBlock(mixedSchedule(t, n, 13, steps))
		if want := m.Graph(4); !slices.Equal(got, want) {
			t.Errorf("n=%d: Graph %+v, one monitor alone gives %+v", n, got, want)
		}
	}
}

// Graph's one allocation is its result: the rows' set names come from the
// layout, not from formatting each call.
func TestMonitorGraphAllocs(t *testing.T) {
	for _, cfg := range []obs.MonitorConfig{{N: 4}, {N: 6}, {N: 9, Sizes: [][2]int{{1, 9}, {2, 3}, {4, 4}}}} {
		m := mustMonitor(t, cfg)
		m.ObserveBlock(mixedSchedule(t, cfg.N, 5, 3000))
		if avg := testing.AllocsPerRun(20, func() { m.Graph(4) }); avg != 1 {
			t.Fatalf("%+v: Graph allocates %.1f times per call, want 1", cfg, avg)
		}
	}
}

// On long mixed schedules, the shape of the benchmark's monitored ones, the
// stored maxima grow large, so most closing windows are within P's
// threshold and skip the fold. At several prefixes, fed in 256-step blocks
// and ending mid-block, Graph, Best and InSystem still equal the batch
// extractor's answers.
func TestMonitorLongSchedules(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		s := mixedSchedule(t, n, int64(n), foldSteps[n])
		m := mustMonitor(t, obs.MonitorConfig{N: n})
		done := 0
		for _, end := range []int{1000, len(s)/3 + 7, 2*len(s)/3 + 129, len(s)} {
			for ; done < end; done = min(done+256, end) {
				m.ObserveBlock(s[done:min(done+256, end)])
			}
			prefix := s[:end]
			for k, row := range m.Graph(4) {
				best := sched.BestPair(prefix, n, row.I, row.J)
				if row.Best != best || row.Held != sched.InSystem(prefix, n, row.I, row.J, 4) {
					t.Fatalf("n=%d after %d steps: Graph row %d = %+v, batch best %+v", n, end, k, row, best)
				}
				if got := m.Best(row.I, row.J); got != best {
					t.Fatalf("n=%d after %d steps: Best(%d,%d) = %+v, batch says %+v", n, end, row.I, row.J, got, best)
				}
				for _, b := range []int{best.MinBound - 1, best.MinBound} {
					if got, want := m.InSystem(row.I, row.J, b), sched.InSystem(prefix, n, row.I, row.J, b); got != want {
						t.Fatalf("n=%d after %d steps: InSystem(%d,%d,%d) = %v, batch says %v", n, end, row.I, row.J, b, got, want)
					}
				}
			}
		}
	}
}

// Graph reports one row per tracked class with the batch extractor's best
// witness, and marks held classes by the probed bound.
func TestMonitorGraph(t *testing.T) {
	const n, steps, bound = 4, 400, 4
	s := sched.Take(mustSource(t, "random", n, 21), steps)
	m := mustMonitor(t, obs.MonitorConfig{N: n})
	m.ObserveBlock(s)
	rows := m.Graph(bound)
	want := 0
	for i := 1; i <= n; i++ {
		want += n - i + 1
	}
	if len(rows) != want {
		t.Fatalf("Graph has %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		best := sched.BestPair(s, n, row.I, row.J)
		if row.Best != best {
			t.Fatalf("Graph row (%d,%d) best %+v, batch says %+v", row.I, row.J, row.Best, best)
		}
		if row.Held != (best.MinBound <= bound) {
			t.Fatalf("Graph row (%d,%d) held %v with best bound %d, probe %d", row.I, row.J, row.Held, best.MinBound, bound)
		}
		if row.BestP != best.P.String() || row.BestQ != best.Q.String() || row.MinBound != best.MinBound {
			t.Fatalf("Graph row (%d,%d) JSON mirror out of sync: %+v", row.I, row.J, row)
		}
	}
}

// Restricting Sizes tracks only the named classes; untracked queries panic.
func TestMonitorSizesRestriction(t *testing.T) {
	const n = 5
	m := mustMonitor(t, obs.MonitorConfig{N: n, Sizes: [][2]int{{1, n}, {2, n}}})
	s := sched.Take(mustSource(t, "starver", n, 3), 300)
	m.ObserveBlock(s)
	for _, ij := range [][2]int{{1, n}, {2, n}} {
		if got, want := m.Best(ij[0], ij[1]), sched.BestPair(s, n, ij[0], ij[1]); got != want {
			t.Fatalf("Best%v = %+v, batch says %+v", ij, got, want)
		}
	}
	if len(m.Graph(4)) != 2 {
		t.Fatalf("Graph has %d rows, want 2", len(m.Graph(4)))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("query of untracked class did not panic")
			}
		}()
		m.Best(3, 4)
	}()
}

func TestMonitorConfigValidation(t *testing.T) {
	cases := []obs.MonitorConfig{
		{N: 0},
		{N: procset.MaxProcs + 1},
		{N: 7}, // full family beyond the implicit limit
		{N: 4, Sizes: [][2]int{{2, 1}}},
		{N: 4, Sizes: [][2]int{{0, 2}}},
		{N: 4, Sizes: [][2]int{{1, 5}}},
	}
	for _, cfg := range cases {
		if _, err := obs.NewMonitor(cfg); err == nil {
			t.Fatalf("obs.NewMonitor(%+v) accepted an invalid config", cfg)
		}
	}
	// Large n is fine with explicit classes.
	if _, err := obs.NewMonitor(obs.MonitorConfig{N: 12, Sizes: [][2]int{{1, 12}}}); err != nil {
		t.Fatal(err)
	}
}

// The monitor, fed the exact schedule population of the relations campaign,
// reproduces the campaign's empirical timeliness graph: for every job the
// per-class membership verdicts agree, so the aggregated tallies do too.
// This ties the online plane to the repo's batch experiment end to end.
func TestMonitorMatchesRelationsCampaign(t *testing.T) {
	cfg := experiments.RelationsConfig{
		N: 4, Bound: 4, Steps: 400, Schedules: 10,
		Generator: "mixed", Workers: 2,
	}
	const seed = 1234
	report, err := experiments.RunRelationsCampaign(context.Background(), cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the population from the campaign's derived seeds and tally
	// membership through the monitor instead of the batch extractor.
	tallies := map[string]int{}
	m := mustMonitor(t, obs.MonitorConfig{N: cfg.N})
	for idx := 0; idx < cfg.Schedules; idx++ {
		jobSeed := campaign.SeedFor(seed, idx)
		var (
			src sched.Source
			err error
		)
		if idx%2 == 0 {
			src, err = sched.Random(cfg.N, jobSeed, nil)
		} else {
			k := int(uint64(jobSeed)%uint64(cfg.N-1)) + 1
			src, err = sched.RotatingStarver(cfg.N, k, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		m.Reset()
		m.ObserveBlock(sched.Take(src, cfg.Steps))
		for i := 1; i <= cfg.N; i++ {
			for j := i; j <= cfg.N; j++ {
				if m.InSystem(i, j, cfg.Bound) {
					tallies[experiments.RelationKey(i, j)]++
				}
			}
		}
	}
	for i := 1; i <= cfg.N; i++ {
		for j := i; j <= cfg.N; j++ {
			key := experiments.RelationKey(i, j)
			if got, want := tallies[key], report.Summary.Tallies[key]; got != want {
				t.Fatalf("monitor tallied %s = %d, campaign reports %d", key, got, want)
			}
		}
	}
}

// End-to-end through the engine: a machine-mode runner driven on the
// batched fast path through a tapped source feeds the monitor exactly the
// executed schedule, and the run itself is bit-identical to an untapped
// one (same final register value, same step counters).
func TestMonitorTapFeedThroughRunner(t *testing.T) {
	const n, steps = 4, 2048
	m := mustMonitor(t, obs.MonitorConfig{N: n})

	drive := func(src sched.Source) sim.Stats {
		t.Helper()
		r, err := sim.NewRunner(sim.Config{
			N: n,
			Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
				return &pingMachine{reg: regs.Reg("ping")}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		res := r.Run(src, steps, 0, nil)
		if res.Steps != steps {
			t.Fatalf("run executed %d steps, want %d", res.Steps, steps)
		}
		return r.Stats()
	}

	wantStats := drive(mustSource(t, "random", n, 77))
	tapped := sched.Tap(mustSource(t, "random", n, 77), m.ObserveBlock)
	if gotStats := drive(tapped); gotStats != wantStats {
		t.Fatalf("tapped run diverged: stats %+v vs %+v", gotStats, wantStats)
	}
	if m.Steps() != steps {
		t.Fatalf("monitor observed %d steps, want %d", m.Steps(), steps)
	}
	// The monitor saw the same schedule the runner executed: its graph
	// matches the batch extractor on an identically drawn prefix.
	want := sched.Take(mustSource(t, "random", n, 77), steps)
	checkAgainstBatch(t, m, want, n)
}

// pingMachine alternately writes a constant and reads it back — the
// smallest machine exercising both op kinds on the batch loop.
type pingMachine struct {
	reg   sim.Ref
	reads bool
	op    sim.Op
}

func (pm *pingMachine) NextOp(prev any) *sim.Op {
	if pm.reads {
		pm.reads = false
		pm.op = sim.ReadOp(pm.reg)
		return &pm.op
	}
	pm.reads = true
	pm.op = sim.WriteOp(pm.reg, 7)
	return &pm.op
}
