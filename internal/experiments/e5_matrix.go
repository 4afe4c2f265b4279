package experiments

import (
	"context"
	"fmt"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/core"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
	"github.com/settimeliness/settimeliness/internal/trace"
)

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
	// Cells of one problem share {N,K,T} but solvable ones differ in
	// DetectorK, so rigs are pooled per solver configuration: a sweep holds
	// a handful of pools and builds at most one rig per (configuration,
	// concurrent worker).
	var specs []MatrixCell
	var jobs []campaign.Cell[kset.Config]
	for _, p := range problems {
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
		for i := 1; i <= p.N; i++ {
			for j := i; j <= p.N; j++ {
				sys := core.Sij(i, j, p.N)
				theory, err := p.SolvableIn(sys)
				if err != nil {
					return nil, nil, err
				}
				kcfg := kset.Config{N: p.N, K: p.K, T: p.T}
				if theory {
					if kcfg, err = p.AgreementConfig(sys); err != nil {
						return nil, nil, err
					}
				}
				specs = append(specs, MatrixCell{Problem: p, I: i, J: j, Theory: theory})
				jobs = append(jobs, campaign.Cell[kset.Config]{Name: fmt.Sprintf("%v S^%d_{%d,%d}", p, i, j, p.N), Key: kcfg, Hi: 1})
			}
		}
	}
	rep, details, err := campaign.RunSweep(ctx, campaign.Sweep[kset.Config, *agreementRig, *MatrixCell]{
		Config: campaign.Config{Workers: workers, Seed: seed, OnResult: onResult},
		Cells:  jobs,
		Build:  newAgreementRig,
		Runner: func(rig *agreementRig) *sim.Runner { return rig.runner },
		Run: func(rig *agreementRig, out *campaign.Outcome, j int, _ int64, _ int) (bool, error) {
			cell := specs[j]
			sys := core.Sij(cell.I, cell.J, cell.Problem.N)
			if err := rig.reset(); err != nil {
				return true, err
			}
			var err error
			if cell.Theory {
				cell.Empirical, cell.Match, cell.Steps, err = runSolvableCell(rig, cell.Problem, sys, seed, posBudget)
			} else {
				cell.Empirical, cell.Match, cell.Steps, err = runUnsolvableCell(rig, cell.Problem, sys, negBudget)
			}
			if err != nil {
				return true, err
			}
			out.Verdict = "unsolvable-held"
			if cell.Theory {
				out.Verdict = "solvable-decided"
			}
			if !cell.Match {
				out.Verdict = "mismatch"
			}
			out.Ok, out.Steps, out.Detail = cell.Match, cell.Steps, &cell
			return false, nil
		},
	})
	if err != nil {
		return nil, rep, err
	}
	// Details come in job order, problem-major then (i,j) — the order of
	// the historical sequential loop. A resumed campaign's cells decode
	// from raw JSON alike; a job that did not complete has none.
	cells := make([]MatrixCell, 0, len(details))
	for _, c := range details {
		if c != nil {
			cells = append(cells, *c)
		}
	}
	return cells, rep, nil
}

// runSolvableCell runs the dispatcher-selected solver (the rig's
// configuration) on a schedule conformant to sys.
func runSolvableCell(rig *agreementRig, p core.Problem, sys core.SystemID, seed int64, budget int) (string, bool, int, error) {
	// One crash to keep the run honest without slowing convergence, except
	// in systems too fragile for any crash (t = n−1 keeps all-but-one).
	crashes := map[procset.ID]int{procset.ID(p.N): 25}
	if p.T == 0 {
		crashes = nil
	}
	var src sched.Source
	var err error
	if rig.cfg.UsesTrivialAlgorithm() {
		src, err = sched.Random(p.N, seed, crashes)
	} else {
		// The conformant generator must witness S^i_{j,n}; the dispatcher's
		// detector (DetectorK, or K when unset) then relies on the
		// containment S^i_{j,n} ⊆ S^dk_{t+1,n}.
		src, _, err = sched.System(p.N, sys.I, sys.J, 4, seed, crashes)
	}
	if err != nil {
		return "", false, 0, err
	}
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
func runUnsolvableCell(rig *agreementRig, p core.Problem, sys core.SystemID, budget int) (string, bool, int, error) {
	var crashed procset.Set
	if sys.I <= p.K {
		for q := 0; q < sys.J-sys.I; q++ {
			crashed = crashed.Add(procset.ID(p.N - q))
		}
	}
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
