package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// nightlyGrid is the nightly matrix job's grid: t, k ∈ 1..3, n ∈ 4..6.
func nightlyGrid() []core.Problem {
	var out []core.Problem
	for n := 4; n <= 6; n++ {
		for t := 1; t <= 3; t++ {
			for k := 1; k <= 3; k++ {
				out = append(out, core.Problem{T: t, K: k, N: n})
			}
		}
	}
	return out
}

// TestMatrixPlansOneExecutionPerConstruction pins the sharing on the
// nightly grid: its 186 unsolvable cells need 30 distinct adversarial
// executions, one per (solver configuration, crash set).
func TestMatrixPlansOneExecutionPerConstruction(t *testing.T) {
	t.Parallel()
	specs, _, groups, err := planMatrix(nightlyGrid())
	if err != nil {
		t.Fatal(err)
	}
	unsolvable := 0
	distinct := map[*advGroup]bool{}
	for j, g := range groups {
		if specs[j].Theory != (g == nil) {
			t.Fatalf("cell %+v: theory %v but group %p", specs[j], specs[j].Theory, g)
		}
		if g != nil {
			unsolvable++
			distinct[g] = true
		}
	}
	if unsolvable != 186 || len(distinct) != 30 {
		t.Errorf("%d unsolvable cells plan %d executions, want 186 and 30", unsolvable, len(distinct))
	}
}

// referenceUnsolvable classifies an unsolvable cell the way the matrix did
// before executions were shared: a fresh rig drives the cell's own
// adversarial run, and the cell checks its witness on that run's recording.
func referenceUnsolvable(t *testing.T, c MatrixCell, budget int) MatrixCell {
	t.Helper()
	p := c.Problem
	var crashed procset.Set
	if c.I <= p.K {
		for q := 0; q < c.J-c.I; q++ {
			crashed = crashed.Add(procset.ID(p.N - q))
		}
	}
	run, schedule, err := driveAgreementAdversarial(kset.Config{N: p.N, K: p.K, T: p.T}, crashed, budget)
	if err != nil {
		t.Fatal(err)
	}
	c.Steps, c.Match = run.Steps, false
	switch {
	case len(run.SafetyErrors) > 0:
		c.Empirical = fmt.Sprintf("SAFETY VIOLATION %v", run.SafetyErrors[0])
		return c
	case run.AllDecided:
		c.Empirical = fmt.Sprintf("DECIDED@%d (adversary too weak)", run.LastDecide)
		return c
	}
	if c.I <= p.K {
		var witnessP procset.Set
		for _, q := range procset.FullSet(p.N).Minus(crashed).Members() {
			if witnessP.Size() < c.I {
				witnessP = witnessP.Add(q)
			}
		}
		if sched.MaxQGap(schedule, witnessP, witnessP.Union(crashed)) != 0 {
			c.Empirical = "CONFORMANCE FAILURE"
			return c
		}
	}
	c.Empirical, c.Match = fmt.Sprintf("NO-DECISION@%d, safe", run.Steps), true
	return c
}

// TestMatrixSharedExecutionsMatchFreshRigs is the differential check of the
// sharing: on problems whose cells share runs across crash sets and witness
// sizes, every unsolvable cell equals its own fresh-rig execution, and the
// sweep is the same at 1 and 3 workers. The budget exceeds the adversary's
// 50,000-step recording, so the witnesses see a bounded prefix.
func TestMatrixSharedExecutionsMatchFreshRigs(t *testing.T) {
	t.Parallel()
	const negBudget = 60_000
	problems := []core.Problem{{T: 3, K: 1, N: 6}, {T: 2, K: 2, N: 5}, {T: 3, K: 2, N: 4}}
	var first []MatrixCell
	for _, workers := range []int{1, 3} {
		cells, _, err := MatrixSweep(context.Background(), problems, 5, 500_000, negBudget, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = cells
			continue
		}
		if !reflect.DeepEqual(cells, first) {
			t.Errorf("cells differ between 1 and %d workers", workers)
		}
	}
	unsolvable := 0
	for _, c := range first {
		if c.Theory {
			continue
		}
		unsolvable++
		if want := referenceUnsolvable(t, c, negBudget); c != want {
			t.Errorf("%v S^%d_{%d,%d}: shared %q (%d steps), fresh rig %q (%d steps)",
				c.Problem, c.I, c.J, c.Problem.N, c.Empirical, c.Steps, want.Empirical, want.Steps)
		}
	}
	if unsolvable != 33 {
		t.Errorf("%d unsolvable cells, want 33", unsolvable)
	}
}

// TestMatrixFailedSharedRunIsNotShared: a shared run that panics leaves its
// group failed, not a zero outcome, and each cell then drives its own run.
func TestMatrixFailedSharedRunIsNotShared(t *testing.T) {
	t.Parallel()
	const negBudget = 20_000
	p := core.Problem{T: 3, K: 2, N: 4}
	specs, _, groups, err := planMatrix([]core.Problem{p})
	if err != nil {
		t.Fatal(err)
	}
	rig, err := newAgreementRig(kset.Config{N: p.N, K: p.K, T: p.T})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.runner.Close()
	for j, c := range specs {
		if c.Theory {
			continue
		}
		g := groups[j]
		if !g.driven {
			// A nil rig panics inside the shared drive.
			func() {
				defer func() { _ = recover() }()
				g.shared(nil, negBudget)
			}()
			if !g.driven || g.ok {
				t.Fatalf("S^%d_{%d,%d}: driven %v, ok %v after a panicking run, want a failed group", c.I, c.J, p.N, g.driven, g.ok)
			}
		}
		if err := rig.reset(); err != nil {
			t.Fatal(err)
		}
		sys := core.Sij(c.I, c.J, p.N)
		got := c
		if got.Empirical, got.Match, got.Steps, err = runUnsolvableCell(rig, g, p, sys, negBudget); err != nil {
			t.Fatal(err)
		}
		if want := referenceUnsolvable(t, c, negBudget); got != want {
			t.Errorf("S^%d_{%d,%d}: %q (%d steps), fresh rig %q (%d steps)", c.I, c.J, p.N, got.Empirical, got.Steps, want.Empirical, want.Steps)
		}
	}
}
