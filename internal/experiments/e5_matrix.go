package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/trace"
)

// rigPools recycles agreement rigs across the cells of a matrix campaign,
// one campaign.Pool per solver configuration (cells of one problem share
// {N,K,T} but differ in DetectorK, so a sweep holds a handful of pools).
// Workers build at most one rig per (configuration, concurrent worker)
// instead of a fresh kset solver + runner per cell.
type rigPools struct {
	mu    sync.Mutex
	pools map[kset.Config]*campaign.Pool[*agreementRig]
}

func newRigPools() *rigPools {
	return &rigPools{pools: make(map[kset.Config]*campaign.Pool[*agreementRig])}
}

// get hands out a reset rig for the configuration, building pool and rig on
// demand.
func (rp *rigPools) get(cfg kset.Config) (*agreementRig, error) {
	rp.mu.Lock()
	pool, ok := rp.pools[cfg]
	if !ok {
		pool = campaign.NewPool(func() (*agreementRig, error) { return newAgreementRig(cfg) })
		rp.pools[cfg] = pool
	}
	rp.mu.Unlock()
	rig, err := pool.Get()
	if err != nil {
		return nil, err
	}
	if err := rig.reset(); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (rp *rigPools) put(rig *agreementRig) {
	rp.mu.Lock()
	pool := rp.pools[rig.cfg]
	rp.mu.Unlock()
	pool.Put(rig)
}

func (rp *rigPools) drain() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for _, pool := range rp.pools {
		pool.Drain(func(rig *agreementRig) { rig.close() })
	}
}

// MatrixCell is one (i,j) entry of the Theorem 27 matrix for a fixed
// problem, pairing the theoretical verdict with the empirical outcome.
type MatrixCell struct {
	Problem   core.Problem `json:"problem"`
	I, J      int
	Theory    bool
	Empirical string
	Match     bool
	// Steps is the number of simulation steps the cell's run executed.
	Steps int
}

// MatrixSweep evaluates the Theorem 27 matrices of several problems as one
// campaign, one job per cell, sharded across workers (0 means GOMAXPROCS),
// streaming each completed cell outcome to onResult (may be nil) in a fixed
// order. Solvable cells run the dispatcher-selected algorithm on a
// conformant schedule and must decide and verify; unsolvable cells run the
// best available algorithm against the matching adversary and must neither
// violate safety nor reach a decision within the horizon. Every cell uses
// the caller's seed, so the returned cells, ordered problem-major, then
// (i,j), are identical at any worker count.
func MatrixSweep(ctx context.Context, problems []core.Problem, seed int64, posBudget, negBudget, workers int, onResult func(campaign.Outcome)) ([]MatrixCell, *campaign.Report, error) {
	pools := newRigPools()
	defer pools.drain()
	var jobs []campaign.Job
	for _, p := range problems {
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
		p := p
		for i := 1; i <= p.N; i++ {
			for j := i; j <= p.N; j++ {
				i, j := i, j
				jobs = append(jobs, campaign.Job{
					Name: fmt.Sprintf("%v S^%d_{%d,%d}", p, i, j, p.N),
					Run: func(ctx context.Context, _ int64) (campaign.Outcome, error) {
						cell, err := runCell(pools, p, i, j, seed, posBudget, negBudget)
						if err != nil {
							return campaign.Outcome{}, err
						}
						return cellOutcome(cell), nil
					},
				})
			}
		}
	}
	// The engine delivers outcomes in job order from one goroutine, so the
	// collected cells come out problem-major then (i,j) — the same order the
	// historical sequential loop produced.
	cells := make([]MatrixCell, 0, len(jobs))
	collect := func(o campaign.Outcome) {
		// DecodeDetail rather than a bare type assertion: on a resumed
		// (checkpointed) campaign the recovered outcomes carry their cells as
		// raw JSON.
		if c, ok := campaign.DecodeDetail[MatrixCell](o.Detail); ok {
			cells = append(cells, c)
		}
		if onResult != nil {
			onResult(o)
		}
	}
	rep, err := campaign.Run(ctx, campaign.Config{Workers: workers, Seed: seed, OnResult: collect}, jobs)
	if err != nil {
		return nil, rep, err
	}
	return cells, rep, nil
}

// runCell evaluates one (i,j) cell of p's matrix on a pooled rig.
func runCell(pools *rigPools, p core.Problem, i, j int, seed int64, posBudget, negBudget int) (MatrixCell, error) {
	sys := core.Sij(i, j, p.N)
	theory, err := p.SolvableIn(sys)
	if err != nil {
		return MatrixCell{}, err
	}
	cell := MatrixCell{Problem: p, I: i, J: j, Theory: theory}
	if theory {
		cell.Empirical, cell.Match, cell.Steps, err = runSolvableCell(pools, p, sys, seed, posBudget)
	} else {
		cell.Empirical, cell.Match, cell.Steps, err = runUnsolvableCell(pools, p, sys, seed, negBudget)
	}
	if err != nil {
		return MatrixCell{}, err
	}
	return cell, nil
}

// cellOutcome summarizes a cell for campaign aggregation.
func cellOutcome(cell MatrixCell) campaign.Outcome {
	verdict := "unsolvable-held"
	if cell.Theory {
		verdict = "solvable-decided"
	}
	if !cell.Match {
		verdict = "mismatch"
	}
	return campaign.Outcome{
		Verdict: verdict,
		Ok:      cell.Match,
		Steps:   cell.Steps,
		Detail:  cell,
	}
}

func runSolvableCell(pools *rigPools, p core.Problem, sys core.SystemID, seed int64, budget int) (string, bool, int, error) {
	kcfg, err := p.AgreementConfig(sys)
	if err != nil {
		return "", false, 0, err
	}
	// One crash to keep the run honest without slowing convergence, except
	// in systems too fragile for any crash (t = n−1 keeps all-but-one).
	crashes := map[procset.ID]int{procset.ID(p.N): 25}
	if p.T == 0 {
		crashes = nil
	}
	var src sched.Source
	if kcfg.UsesTrivialAlgorithm() {
		src, err = sched.Random(p.N, seed, crashes)
	} else {
		dk := kcfg.DetectorK
		if dk == 0 {
			dk = kcfg.K
		}
		// The conformant generator must witness S^i_{j,n}; the dispatcher's
		// detector then relies on the containment S^i_{j,n} ⊆ S^dk_{t+1,n}.
		src, _, err = sched.System(p.N, sys.I, sys.J, 4, seed, crashes)
	}
	if err != nil {
		return "", false, 0, err
	}
	rig, err := pools.get(kcfg)
	if err != nil {
		return "", false, 0, err
	}
	defer pools.put(rig)
	run := rig.driveConformant(src, budget)
	if run.AllDecided && len(run.Violations) == 0 {
		return fmt.Sprintf("DECIDED@%d (%d values)", run.LastDecide, run.Distinct), true, run.Steps, nil
	}
	if len(run.Violations) > 0 {
		return fmt.Sprintf("VIOLATION %v", run.Violations[0]), false, run.Steps, nil
	}
	return fmt.Sprintf("NO-DECISION@%d", run.Steps), false, run.Steps, nil
}

// runUnsolvableCell runs the strongest configuration we have for (t,k,n)
// against the adaptive parking adversary (internal/adversary), staged per
// the two cases of Theorem 27 part 2:
//
//   - i ≤ k, j−i < t+1−k (case 2b): j−i processes crash at time zero (the
//     proof's fictitious processes: any i-set of live processes is then
//     timely w.r.t. itself plus the crashed ones, so every generated
//     schedule is in S^i_{j,n} by construction);
//   - i > k (case 2a): nobody crashes; the adversary parks at most k
//     processes at a time, so every (k+1)-set — and by Observation 3 every
//     i ≥ k+1 sized set — stays timely w.r.t. Πn.
//
// Termination must fail (Theorem 27 says no algorithm terminates on all such
// schedules; the adversary defeats ours on this one) and safety must hold.
func runUnsolvableCell(pools *rigPools, p core.Problem, sys core.SystemID, seed int64, budget int) (string, bool, int, error) {
	kcfg := kset.Config{N: p.N, K: p.K, T: p.T}
	var crashed procset.Set
	if sys.I <= p.K {
		for q := 0; q < sys.J-sys.I; q++ {
			crashed = crashed.Add(procset.ID(p.N - q))
		}
	}
	rig, err := pools.get(kcfg)
	if err != nil {
		return "", false, 0, err
	}
	defer pools.put(rig)
	run, schedule, err := rig.driveAdversarial(crashed, budget)
	if err != nil {
		return "", false, 0, err
	}
	if len(run.SafetyErrors) > 0 {
		return fmt.Sprintf("SAFETY VIOLATION %v", run.SafetyErrors[0]), false, run.Steps, nil
	}
	if run.AllDecided {
		// Deciding on one adversarial run does not contradict the theorem
		// (only all-runs termination would), but it means our adversary is
		// too weak — flag it.
		return fmt.Sprintf("DECIDED@%d (adversary too weak)", run.LastDecide), false, run.Steps, nil
	}
	// Conformance spot check: the schedule must witness S^i_{j,n}. For case
	// 2b this is structural (an i-set of live processes plus the silent
	// crashed ones); verify the witness on the generated prefix.
	if sys.I <= p.K {
		var witnessP procset.Set
		live := procset.FullSet(p.N).Minus(crashed)
		for _, q := range live.Members() {
			if witnessP.Size() >= sys.I {
				break
			}
			witnessP = witnessP.Add(q)
		}
		witnessQ := witnessP.Union(crashed)
		// The adversary's recording is already bounded to this prefix;
		// re-slice defensively in case a caller configured full recording.
		prefix := schedule
		if len(prefix) > adversary.DefaultScheduleLimit {
			prefix = prefix[:adversary.DefaultScheduleLimit]
		}
		if sched.MaxQGap(prefix, witnessP, witnessQ) != 0 {
			return "CONFORMANCE FAILURE", false, run.Steps, nil
		}
	}
	return fmt.Sprintf("NO-DECISION@%d, safe", run.Steps), true, run.Steps, nil
}

// runE5 renders the matrix for representative problems.
func runE5(cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E5",
		Title: "Theorem 27: the solvability matrix",
		Claim: "every (i,j) cell matches the characterization: i ≤ k and j−i ≥ t+1−k",
	}
	problems := []core.Problem{{T: 3, K: 2, N: 5}}
	posBudget, negBudget := 3_000_000, 300_000
	if !cfg.Quick {
		problems = append(problems, core.Problem{T: 2, K: 2, N: 4}, core.Problem{T: 2, K: 1, N: 4})
	} else {
		posBudget, negBudget = 2_000_000, 150_000
	}
	pass := true
	for _, p := range problems {
		cells, _, err := MatrixSweep(context.Background(), []core.Problem{p}, cfg.Seed+101, posBudget, negBudget, 0, nil)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			pass = pass && c.Match
		}
		res.Tables = append(res.Tables, MatrixTable(fmt.Sprintf("Theorem 27 matrix for %v (rows: i, cols: j)", p), cells))
	}
	res.Pass = pass
	res.Notes = append(res.Notes,
		"solvable cells must DECIDE and verify all three properties; unsolvable cells must stay safe with no decision at the horizon")
	return res, nil
}

// MatrixTable renders matrix cells as a titled table, one row per (i,j).
func MatrixTable(title string, cells []MatrixCell) *trace.Table {
	tb := trace.NewTable(title, "i", "j", "theory", "empirical", "match")
	for _, c := range cells {
		tb.AddRow(c.I, c.J, solvableMark(c.Theory), c.Empirical, boolMark(c.Match))
	}
	return tb
}

func solvableMark(b bool) string {
	if b {
		return "solvable"
	}
	return "unsolvable"
}
