package explore

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// brokenMinMachine is the machine form of brokenAgreementBuilder's protocol:
// write V[p] = p, read every V[q], decide the minimum seen — unsound, so the
// reduced explorer must find the same disagreements the full enumeration
// does.
type brokenMinMachine struct {
	p       procset.ID
	n       int
	regs    []sim.Ref
	decided []any
	i       int // next read index; 0 = own write not yet issued
	min     int
	op      sim.Op
}

func (m *brokenMinMachine) NextOp(prev any) *sim.Op {
	switch {
	case m.i == 0:
		m.i = 1
		m.min = int(m.p)
		m.op = sim.WriteOp(m.regs[m.p], int(m.p))
		return &m.op
	case m.i == 1:
		// The write completed; issue the first read.
		m.i = 2
		m.op = sim.ReadOp(m.regs[1])
		return &m.op
	default:
		if v, ok := prev.(int); ok && v < m.min {
			m.min = v
		}
		if m.i <= m.n {
			m.i++
			m.op = sim.ReadOp(m.regs[m.i-1])
			return &m.op
		}
		m.decided[m.p] = m.min
		return nil
	}
}

func brokenMinCheck(n int, decided []any) error {
	var first any
	for p := 1; p <= n; p++ {
		if decided[p] == nil {
			continue
		}
		if first == nil {
			first = decided[p]
		} else if decided[p] != first {
			return fmt.Errorf("disagreement: %v vs %v", first, decided[p])
		}
	}
	return nil
}

func brokenMinPooledBuilder(n int) PooledBuilder {
	return func() (*Run, error) {
		decided := make([]any, n+1)
		runner, err := sim.NewRunner(sim.Config{
			N: n,
			Machine: func(p procset.ID, regs sim.Registry) sim.Machine {
				m := &brokenMinMachine{p: p, n: n, decided: decided, regs: make([]sim.Ref, n+1)}
				for q := 1; q <= n; q++ {
					m.regs[q] = regs.Reg(fmt.Sprintf("V[%d]", q))
				}
				return m
			},
		})
		if err != nil {
			return nil, err
		}
		return &Run{
			Runner: runner,
			Reset:  func() { clear(decided) },
			Check:  func() error { return brokenMinCheck(n, decided) },
		}, nil
	}
}

// fullSweep runs the unreduced enumeration of (n, depth) on one pooled run
// and collects every violation.
func fullSweep(t *testing.T, n, depth int, build PooledBuilder) []*Violation {
	t.Helper()
	total, schedules, err := exhaustiveSpace(n, depth)
	if err != nil {
		t.Fatal(err)
	}
	nth := schedules()
	run, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Runner.Close()
	var out []*Violation
	for i := 0; i < total; i++ {
		if err := runPooled(run, nth(i)); err != nil {
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return out
}

// errSet reduces violations to their sorted distinct error messages — the
// verdict set. Commuting adjacent independent steps preserves final states,
// so the reduced sweep must reproduce this set exactly.
func errSet(vs []*Violation) []string {
	seen := map[string]bool{}
	for _, v := range vs {
		seen[v.Err.Error()] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExhaustiveReducedFindsAllVerdicts pins POR soundness on a violating
// protocol: the reduced sweep's verdict set (distinct violation messages)
// equals the full enumeration's, every reduced violating schedule is a real
// violating schedule of the full space, and the sweep actually pruned.
func TestExhaustiveReducedFindsAllVerdicts(t *testing.T) {
	t.Parallel()
	const n, depth = 2, 12
	full := fullSweep(t, n, depth, brokenMinPooledBuilder(n))
	if len(full) == 0 {
		t.Fatal("mutant produced no violations on the full sweep")
	}
	fullByS := map[string]bool{}
	for _, v := range full {
		fullByS[v.Schedule.String()] = true
	}

	var reduced []*Violation
	stats, err := ExhaustiveReducedAll(n, depth, brokenMinPooledBuilder(n), func(v *Violation) {
		reduced = append(reduced, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced) == 0 {
		t.Fatal("mutant produced no violations on the reduced sweep")
	}
	if got, want := errSet(reduced), errSet(full); !sameStrings(got, want) {
		t.Errorf("verdict sets differ:\n  reduced: %v\n  full:    %v", got, want)
	}
	for _, v := range reduced {
		if !fullByS[v.Schedule.String()] {
			t.Errorf("reduced violation on %v is not a violation of the full space", v.Schedule)
		}
	}
	if stats.Schedules >= stats.Total {
		t.Errorf("no pruning: %d schedules of %d", stats.Schedules, stats.Total)
	}
	t.Logf("full %d, reduced %d schedules (%.1fx), %d states, %d steps",
		stats.Total, stats.Schedules, stats.Ratio(), stats.States, stats.Steps)
}

// TestExhaustiveReducedFirstViolation pins the early-exit entry point: it
// reports a genuine violation without sweeping the whole space.
func TestExhaustiveReducedFirstViolation(t *testing.T) {
	t.Parallel()
	stats, err := ExhaustiveReduced(2, 12, brokenMinPooledBuilder(2))
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken protocol not caught: %v", err)
	}
	if len(v.Schedule) != 12 {
		t.Errorf("violation schedule = %v", v.Schedule)
	}
	if stats.Schedules >= stats.Total {
		t.Errorf("early exit still swept %d of %d schedules", stats.Schedules, stats.Total)
	}
	// The reported schedule must reproduce its violation on a fresh run.
	run, err2 := brokenMinPooledBuilder(2)()
	if err2 != nil {
		t.Fatal(err2)
	}
	defer run.Runner.Close()
	if err := runPooled(run, v.Schedule); err == nil {
		t.Errorf("reported schedule %v does not reproduce the violation", v.Schedule)
	}
}

// TestExhaustiveReducedMatchesFullOnTargets runs the reduced and full sweeps
// over every named fuzz target at n = 2: all targets are safe, so both
// sweeps must report empty verdict sets — and the reduced one must do so
// with fewer schedules.
func TestExhaustiveReducedMatchesFullOnTargets(t *testing.T) {
	t.Parallel()
	const n, depth = 2, 9
	for _, name := range []string{TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			build, err := PooledTargetBuilder(name, n)
			if err != nil {
				t.Fatal(err)
			}
			if full := fullSweep(t, n, depth, build); len(full) != 0 {
				t.Fatalf("full sweep found unexpected violations: %v", full[0])
			}
			var reduced []*Violation
			stats, err := ExhaustiveReducedAll(n, depth, build, func(v *Violation) {
				reduced = append(reduced, v)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(reduced) != 0 {
				t.Fatalf("reduced sweep found unexpected violations: %v", reduced[0])
			}
			if stats.Schedules >= stats.Total {
				t.Errorf("no pruning: %d schedules of %d", stats.Schedules, stats.Total)
			}
			t.Logf("%s: full %d, reduced %d schedules (%.1fx), %d states",
				name, stats.Total, stats.Schedules, stats.Ratio(), stats.States)
		})
	}
}

// TestExhaustiveReducedRatioN3 pins the reduction's bite at n = 3: the
// canonical sweep must cover the 3^depth space with at least 5× fewer
// executed schedules.
func TestExhaustiveReducedRatioN3(t *testing.T) {
	t.Parallel()
	const n, depth = 3, 8
	for _, name := range []string{TargetCommitAdopt, TargetConsensus} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			build, err := PooledTargetBuilder(name, n)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := ExhaustiveReduced(n, depth, build)
			if err != nil {
				t.Fatal(err)
			}
			if r := stats.Ratio(); r < 5 {
				t.Errorf("reduction ratio = %.2fx (%d of %d schedules), want ≥ 5x",
					r, stats.Schedules, stats.Total)
			}
			t.Logf("%s: %d of %d schedules (%.1fx), %d states, %d steps",
				name, stats.Schedules, stats.Total, stats.Ratio(), stats.States, stats.Steps)
		})
	}
}

// TestExhaustiveReducedValidation mirrors Exhaustive's bounds.
func TestExhaustiveReducedValidation(t *testing.T) {
	t.Parallel()
	b := brokenMinPooledBuilder(2)
	if _, err := ExhaustiveReduced(5, 3, b); err == nil {
		t.Error("n = 5 accepted")
	}
	if _, err := ExhaustiveReduced(2, 0, b); err == nil {
		t.Error("depth = 0 accepted")
	}
}
