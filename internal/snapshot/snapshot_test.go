package snapshot

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestSequentialUpdateScan(t *testing.T) {
	t.Parallel()
	var got View
	runner, err := sim.NewRunner(sim.Config{
		N: 3,
		Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := New(env, "obj")
				if p == 1 {
					o.Update("a")
					o.Update("b")
					got = o.Scan()
				} else {
					for {
						o.Scan()
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	// Run only process 1 to completion: sequential semantics.
	for !runner.Halted(1) {
		runner.Step(1)
	}
	if got.Get(1) != "b" || got.Seqs[1] != 2 {
		t.Errorf("scan = %+v, want value b seq 2", got)
	}
	if got.Get(2) != nil || got.Get(3) != nil {
		t.Errorf("scan sees phantom values: %+v", got)
	}
}

// dominates reports whether v is componentwise at least as recent as w.
func dominates(v, w View) bool {
	for q := 1; q < len(v.Seqs); q++ {
		if v.Seqs[q] < w.Seqs[q] {
			return false
		}
	}
	return true
}

// TestTotalOrderOfViews checks the defining property of atomic snapshots on
// heavily contended random schedules: all returned views are totally ordered
// by componentwise sequence-number domination.
func TestTotalOrderOfViews(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			n := 4
			var viewsSeen []View
			runner, err := sim.NewRunner(sim.Config{
				N: n,
				Algorithm: func(p procset.ID) sim.Algorithm {
					return func(env sim.Env) {
						o := New(env, "obj")
						for i := 0; ; i++ {
							o.Update(fmt.Sprintf("%d.%d", p, i))
							v := o.Scan()
							viewsSeen = append(viewsSeen, v)
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			src, err := sched.Random(n, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			runner.Run(src, 30_000, 0, nil)
			if len(viewsSeen) < 10 {
				t.Fatalf("only %d views collected", len(viewsSeen))
			}
			for i := 0; i < len(viewsSeen); i++ {
				for j := i + 1; j < len(viewsSeen); j++ {
					a, b := viewsSeen[i], viewsSeen[j]
					if !dominates(a, b) && !dominates(b, a) {
						t.Fatalf("incomparable views:\n%v\n%v", a.Seqs, b.Seqs)
					}
				}
			}
		})
	}
}

// TestRegularity checks that a view never misses a write that completed
// before the scan started, and never includes one that started after it
// ended, using per-process write logs.
func TestRegularity(t *testing.T) {
	t.Parallel()
	n := 3
	type record struct {
		proc  procset.ID
		seq   int
		start int // runner step count before the Update
		end   int // runner step count after the Update
	}
	var (
		writes []record
		scans  []struct {
			v          View
			start, end int
		}
		stepClock int
	)
	runner, err := sim.NewRunner(sim.Config{
		N: n,
		Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := New(env, "obj")
				// One synchronizing step before touching the harness clock:
				// code before a process's first step runs concurrently with
				// other processes' steps and may not read harness state.
				env.Read(env.Reg("sync"))
				for i := 1; ; i++ {
					ws := stepClock
					o.Update(i)
					writes = append(writes, record{proc: p, seq: i, start: ws, end: stepClock})
					ss := stepClock
					v := o.Scan()
					scans = append(scans, struct {
						v          View
						start, end int
					}{v, ss, stepClock})
				}
			}
		},
		Observer: func(sim.StepInfo) { stepClock++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	src, err := sched.Random(n, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner.Run(src, 20_000, 0, nil)
	for _, sc := range scans {
		for _, w := range writes {
			if w.end <= sc.start && sc.v.Seqs[w.proc] < w.seq {
				t.Fatalf("scan [%d,%d] missed completed write %+v", sc.start, sc.end, w)
			}
			if w.start >= sc.end && sc.v.Seqs[w.proc] >= w.seq {
				t.Fatalf("scan [%d,%d] saw future write %+v", sc.start, sc.end, w)
			}
		}
	}
}

func TestScanIsWaitFreeUnderStalledWriter(t *testing.T) {
	t.Parallel()
	// A writer stalled mid-Update (crashed) must not block scanners.
	n := 2
	done := false
	runner, err := sim.NewRunner(sim.Config{
		N: n,
		Algorithm: func(p procset.ID) sim.Algorithm {
			return func(env sim.Env) {
				o := New(env, "obj")
				if p == 1 {
					o.Update("x")
					for {
						o.Update("y")
					}
				}
				o.Scan()
				done = true
				for {
					o.Scan()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	// p1 takes a few steps (stalls mid-update), then only p2 runs.
	for i := 0; i < 5; i++ {
		runner.Step(1)
	}
	for i := 0; i < 200 && !done; i++ {
		runner.Step(2)
	}
	if !done {
		t.Fatal("scan blocked by a stalled writer")
	}
}
