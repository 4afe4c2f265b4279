package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// The matrix workload: the nightly Theorem 27 grid, t, k ∈ 1..3 and
// n ∈ 4..6, one MatrixSweep call per (t,k,n) problem at the CLI's budgets.
const (
	matrixPosBudget = 3_000_000
	matrixNegBudget = 300_000
)

var matrixGrid = func() []core.Problem {
	var out []core.Problem
	for n := 4; n <= 6; n++ {
		for t := 1; t <= 3; t++ {
			for k := 1; k <= 3; k++ {
				out = append(out, core.Problem{T: t, K: k, N: n})
			}
		}
	}
	return out
}()

// matrixGateCalls are the first-cycle calls the gate repeats at the other
// worker count: one problem per n.
var matrixGateCalls = []int{0, 13, 26}

type matrixResult struct {
	cells   []experiments.MatrixCell
	summary campaign.Summary
}

type matrixWorkload struct {
	seed  int64
	first map[int]matrixResult
}

func newMatrix(seed int64) (workload, error) {
	for _, p := range matrixGrid {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return &matrixWorkload{seed: seed, first: map[int]matrixResult{}}, nil
}

func (w *matrixWorkload) cycle() int { return len(matrixGrid) }

// inputs returns call i's problem and seed; every cycle over the grid gets
// a fresh seed.
func (w *matrixWorkload) inputs(i int) (core.Problem, int64) {
	return matrixGrid[i%len(matrixGrid)], callSeed(w.seed, i/len(matrixGrid))
}

func (w *matrixWorkload) call(ctx context.Context, i, workers int) (callStats, error) {
	p, seed := w.inputs(i)
	cells, rep, err := experiments.MatrixSweep(ctx, []core.Problem{p}, seed, matrixPosBudget, matrixNegBudget, workers, nil)
	if err != nil {
		return callStats{}, err
	}
	if i < w.cycle() {
		w.first[i] = matrixResult{cells, rep.Summary}
	}
	return matrixStats(cells), nil
}

func matrixStats(cells []experiments.MatrixCell) callStats {
	var cs callStats
	var b strings.Builder
	for _, c := range cells {
		cs.runs++
		cs.steps += int64(c.Steps)
		if !c.Match {
			cs.failed++
		}
		fmt.Fprintf(&b, "%v S^%d_%d %s %v %d;", c.Problem, c.I, c.J, c.Empirical, c.Match, c.Steps)
	}
	cs.digest = b.String()
	return cs
}

// gate repeats one call per n at the other worker count: cells and summary
// must be identical. That every cell matches is counted by the calls.
func (w *matrixWorkload) gate(ctx context.Context, v *verifier, workers int) error {
	other := otherWorkers(workers)
	for _, i := range matrixGateCalls {
		p, seed := w.inputs(i)
		cells, rep, err := experiments.MatrixSweep(ctx, []core.Problem{p}, seed, matrixPosBudget, matrixNegBudget, other, nil)
		if err != nil {
			return err
		}
		v.equal(fmt.Sprintf("matrix %v: summary at %d workers", p, other), rep.Summary, w.first[i].summary)
		v.equal(fmt.Sprintf("matrix %v: cells at %d workers", p, other), cells, w.first[i].cells)
	}
	return nil
}

// proposals are the "v<p>" values the matrix solver proposes.
var proposals = func() [procset.MaxProcs + 1]any {
	var out [procset.MaxProcs + 1]any
	for p := 1; p <= procset.MaxProcs; p++ {
		out[p] = fmt.Sprintf("v%d", p)
	}
	return out
}()

// matrixRig is one reusable agreement run: the solver, its runner and, for
// unsolvable cells, a parking adversary.
type matrixRig struct {
	cfg      kset.Config
	ag       *kset.Agreement
	runner   *sim.Runner
	adv      *adversary.Adversary
	built    int32
	lastStep int // step of the latest decision, -1 before any
}

func newMatrixRig(cfg kset.Config) (*matrixRig, error) {
	rig := &matrixRig{cfg: cfg, built: noSpan}
	ag, err := kset.New(cfg, func(procset.ID, any) { rig.lastStep = rig.runner.Steps() })
	if err != nil {
		return nil, err
	}
	rig.ag = ag
	rig.runner, err = sim.NewRunner(sim.Config{N: cfg.N, Machine: ag.Machine(func(p procset.ID) any { return proposals[p] })})
	if err != nil {
		return nil, err
	}
	return rig, nil
}

// verify checks the agreement properties of the finished run.
func (rig *matrixRig) verify(correct procset.Set) (all, safety []error) {
	decisions := map[procset.ID]any{}
	props := map[procset.ID]any{}
	for p := 1; p <= rig.cfg.N; p++ {
		props[procset.ID(p)] = proposals[p]
		if v, ok := rig.ag.Decision(procset.ID(p)); ok {
			decisions[procset.ID(p)] = v
		}
	}
	run := check.AgreementRun{N: rig.cfg.N, K: rig.cfg.K, T: rig.cfg.T, Proposals: props, Decisions: decisions, Correct: correct}
	return run.Violations(), run.SafetyViolations()
}

// matrixPools hands out reset rigs, one campaign.Pool per solver
// configuration.
type matrixPools struct {
	t     *tracer
	pools map[kset.Config]*campaign.Pool[*matrixRig]
}

// get returns a reset rig for cfg inside job's span.
func (mp *matrixPools) get(cfg kset.Config, job, run int32) (*matrixRig, error) {
	mp.t.mu.Lock()
	pool, ok := mp.pools[cfg]
	if !ok {
		pool = campaign.NewPool(func() (*matrixRig, error) {
			s := mp.t.rec.begin("experiments.rig_build", noSpan, noSpan)
			rig, err := newMatrixRig(cfg)
			mp.t.rec.end(s)
			if rig != nil {
				rig.built = s
			}
			return rig, err
		})
		mp.pools[cfg] = pool
	}
	mp.t.mu.Unlock()
	rig, err := pool.Get()
	if err != nil {
		return nil, err
	}
	if rig.built != noSpan {
		mp.t.rec.reparent(rig.built, job)
		rig.built = noSpan
	}
	rs := mp.t.rec.begin("sim.reset", job, run)
	rig.ag.Reset()
	rig.lastStep = -1
	err = rig.runner.Reset()
	mp.t.rec.end(rs)
	return rig, err
}

func (mp *matrixPools) put(rig *matrixRig) {
	mp.t.mu.Lock()
	pool := mp.pools[rig.cfg]
	mp.t.mu.Unlock()
	pool.Put(rig)
}

func (mp *matrixPools) drain() {
	for _, pool := range mp.pools {
		pool.Drain(func(rig *matrixRig) { rig.runner.Close() })
	}
}

// traceCall is MatrixSweep rebuilt from its layers: one campaign job per
// cell on pooled rigs; solvable cells run the solver on a conformant
// schedule on the batch loop, unsolvable cells run it against the parking
// adversary on the directed loop, then check safety and conformance.
func (w *matrixWorkload) traceCall(ctx context.Context, i int, t *tracer) (callStats, error) {
	p, seed := w.inputs(i)
	call := t.rec.begin("call", noSpan, noSpan)
	defer t.rec.end(call)
	pools := &matrixPools{t: t, pools: map[kset.Config]*campaign.Pool[*matrixRig]{}}
	defer pools.drain()

	type ij struct{ i, j int }
	var cellsIJ []ij
	var names []string
	for a := 1; a <= p.N; a++ {
		for b := a; b <= p.N; b++ {
			cellsIJ = append(cellsIJ, ij{a, b})
			names = append(names, fmt.Sprintf("%v S^%d_{%d,%d}", p, a, b, p.N))
		}
	}
	var cells []experiments.MatrixCell
	collect := func(o campaign.Outcome) {
		if c, ok := o.Detail.(experiments.MatrixCell); ok {
			cells = append(cells, c)
		}
	}
	_, err := t.campaign(ctx, call, campaign.Config{Seed: seed, OnResult: collect}, names,
		func(ctx context.Context, k int, _ int64, job int32) (campaign.Outcome, error) {
			cell, err := w.traceCell(t, pools, p, cellsIJ[k].i, cellsIJ[k].j, seed, job)
			if err != nil {
				return campaign.Outcome{}, err
			}
			verdict := "unsolvable-held"
			if cell.Theory {
				verdict = "solvable-decided"
			}
			if !cell.Match {
				verdict = "mismatch"
			}
			return campaign.Outcome{Verdict: verdict, Ok: cell.Match, Steps: cell.Steps, Detail: cell}, nil
		})
	if err != nil {
		return callStats{}, err
	}
	return matrixStats(cells), nil
}

func (w *matrixWorkload) traceCell(t *tracer, pools *matrixPools, p core.Problem, i, j int, seed int64, job int32) (experiments.MatrixCell, error) {
	sys := core.Sij(i, j, p.N)
	theory, err := p.SolvableIn(sys)
	if err != nil {
		return experiments.MatrixCell{}, err
	}
	cell := experiments.MatrixCell{Problem: p, I: i, J: j, Theory: theory}
	id := t.run()
	if theory {
		cell.Empirical, cell.Match, cell.Steps, err = traceSolvable(t, pools, p, sys, seed, job, id)
	} else {
		cell.Empirical, cell.Match, cell.Steps, err = traceUnsolvable(t, pools, p, sys, job, id)
	}
	return cell, err
}

func traceSolvable(t *tracer, pools *matrixPools, p core.Problem, sys core.SystemID, seed int64, job, id int32) (string, bool, int, error) {
	kcfg, err := p.AgreementConfig(sys)
	if err != nil {
		return "", false, 0, err
	}
	crashes := map[procset.ID]int{procset.ID(p.N): 25}
	g := t.rec.begin("sched.gen", job, id)
	var src sched.Source
	if kcfg.UsesTrivialAlgorithm() {
		src, err = sched.Random(p.N, seed, crashes)
	} else {
		src, _, err = sched.System(p.N, sys.I, sys.J, 4, seed, crashes)
	}
	t.rec.end(g)
	if err != nil {
		return "", false, 0, err
	}
	rig, err := pools.get(kcfg, job, id)
	if err != nil {
		return "", false, 0, err
	}
	defer pools.put(rig)
	correct := src.Correct()
	ts := &timedSource{Source: src, rec: t.rec}
	x := t.rec.begin("sim.batch", job, id)
	res := rig.runner.Run(ts, matrixPosBudget, 200, func() bool { return correct.SubsetOf(rig.ag.DecidedSet()) })
	t.rec.end(x)
	t.rec.add("sched.gen", x, id, ts.spent)
	t.ranOn("sim.batch", rig.runner.Stats(), ts.steps)

	c := t.rec.begin("check.verify", job, id)
	violations, _ := rig.verify(correct)
	distinct := rig.ag.DistinctDecisions()
	t.rec.end(c)
	steps := rig.runner.Steps()
	switch {
	case res.Stopped && len(violations) == 0:
		return fmt.Sprintf("DECIDED@%d (%d values)", rig.lastStep, distinct), true, steps, nil
	case len(violations) > 0:
		return fmt.Sprintf("VIOLATION %v", violations[0]), false, steps, nil
	}
	return fmt.Sprintf("NO-DECISION@%d", steps), false, steps, nil
}

// crashedFor is the Theorem 27 case 2(b) fictitious crash set of an
// unsolvable cell: j−i processes crashed from the start when i ≤ k.
func crashedFor(p core.Problem, sys core.SystemID) procset.Set {
	var crashed procset.Set
	if sys.I <= p.K {
		for q := 0; q < sys.J-sys.I; q++ {
			crashed = crashed.Add(procset.ID(p.N - q))
		}
	}
	return crashed
}

// armAdversary points the rig's adversary at crashed, creating it on first
// use.
func (rig *matrixRig) armAdversary(crashed procset.Set) error {
	if rig.adv == nil {
		adv, err := adversary.New(adversary.Config{N: rig.cfg.N, CrashedFromStart: crashed})
		rig.adv = adv
		return err
	}
	return rig.adv.ResetCrashed(crashed)
}

func traceUnsolvable(t *tracer, pools *matrixPools, p core.Problem, sys core.SystemID, job, id int32) (string, bool, int, error) {
	kcfg := kset.Config{N: p.N, K: p.K, T: p.T}
	crashed := crashedFor(p, sys)
	rig, err := pools.get(kcfg, job, id)
	if err != nil {
		return "", false, 0, err
	}
	defer pools.put(rig)
	if err := rig.armAdversary(crashed); err != nil {
		return "", false, 0, err
	}
	correct := rig.adv.Correct()
	x := t.rec.begin("sim.directed", job, id)
	steps, stopped := rig.adv.DriveDirected(rig.runner, matrixNegBudget, 200, func() bool { return correct.SubsetOf(rig.ag.DecidedSet()) })
	t.rec.end(x)
	st := rig.runner.Stats()
	t.ranOn("", st, 0)
	parked := rig.adv.MaxParked()
	t.update(func(c *counters) {
		c.directedSteps += st.Steps
		c.maxParked = max(c.maxParked, parked)
	})

	c := t.rec.begin("check.verify", job, id)
	_, safety := rig.verify(correct)
	t.rec.end(c)
	if len(safety) > 0 {
		return fmt.Sprintf("SAFETY VIOLATION %v", safety[0]), false, steps, nil
	}
	if stopped {
		return fmt.Sprintf("DECIDED@%d (adversary too weak)", rig.lastStep), false, steps, nil
	}
	if sys.I <= p.K {
		var witnessP procset.Set
		for _, q := range procset.FullSet(p.N).Minus(crashed).Members() {
			if witnessP.Size() >= sys.I {
				break
			}
			witnessP = witnessP.Add(q)
		}
		prefix := rig.adv.Schedule()
		if len(prefix) > adversary.DefaultScheduleLimit {
			prefix = prefix[:adversary.DefaultScheduleLimit]
		}
		g := t.rec.begin("sched.maxqgap", job, id)
		gap := sched.MaxQGap(prefix, witnessP, witnessP.Union(crashed))
		t.rec.end(g)
		if gap != 0 {
			return "CONFORMANCE FAILURE", false, steps, nil
		}
	}
	return fmt.Sprintf("NO-DECISION@%d, safe", steps), true, steps, nil
}

// advProbeCells are the unsolvable cells of the adversary difference run.
var advProbeCells = []struct {
	p    core.Problem
	i, j int
}{
	{core.Problem{T: 2, K: 1, N: 4}, 1, 2},
	{core.Problem{T: 2, K: 2, N: 5}, 3, 4},
	{core.Problem{T: 3, K: 2, N: 6}, 2, 3},
}

const advProbeReps = 5

// probe measures the adversary's own cost per step: a directed run of the
// recorded prefix length minus a batch replay of the schedule it recorded,
// which executes the same steps with no director. The replay must leave
// the runner in the same state.
func (w *matrixWorkload) probe(_ context.Context, t *tracer, v *verifier) error {
	var directed, replay time.Duration
	var steps int64
	for _, pc := range advProbeCells {
		rig, err := newMatrixRig(kset.Config{N: pc.p.N, K: pc.p.K, T: pc.p.T})
		if err != nil {
			return err
		}
		crashed := crashedFor(pc.p, core.Sij(pc.i, pc.j, pc.p.N))
		var dRuns, rRuns []float64
		for rep := 0; rep < advProbeReps; rep++ {
			rig.ag.Reset()
			if err := rig.runner.Reset(); err != nil {
				return err
			}
			if err := rig.armAdversary(crashed); err != nil {
				return err
			}
			t0 := time.Now()
			rig.adv.DriveDirected(rig.runner, adversary.DefaultScheduleLimit, adversary.DefaultScheduleLimit, nil)
			dRuns = append(dRuns, float64(time.Since(t0)))
			want := rig.runner.Stats()
			schedule := append(sched.Schedule(nil), rig.adv.Schedule()...)

			rig.ag.Reset()
			if err := rig.runner.Reset(); err != nil {
				return err
			}
			t0 = time.Now()
			rig.runner.RunSchedule(schedule)
			rRuns = append(rRuns, float64(time.Since(t0)))
			if rep == 0 {
				v.equal(fmt.Sprintf("adversary probe %v S^%d_%d: replay counters", pc.p, pc.i, pc.j), rig.runner.Stats(), want)
			}
		}
		rig.runner.Close()
		directed += time.Duration(slices.Min(dRuns))
		replay += time.Duration(slices.Min(rRuns))
		steps += adversary.DefaultScheduleLimit
	}
	t.update(func(c *counters) {
		c.advNsPerStep = float64(directed-replay) / float64(steps)
		c.diffNotes = append(c.diffNotes, fmt.Sprintf(
			"adversary.ns_per_step = (directed %d steps − batch replay of its recorded schedule) / steps, fastest of %d over %d cells: %.2f − %.2f ns/step",
			adversary.DefaultScheduleLimit, advProbeReps, len(advProbeCells),
			float64(directed)/float64(steps), float64(replay)/float64(steps)))
	})
	return nil
}
