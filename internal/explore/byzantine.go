// Byzantine degradation campaigns: sweep a (crash count × Byzantine count ×
// corruption strategy) grid against a protocol workload and classify every
// cell by the worst honest-side outcome observed across its runs —
//
//	safe     every run kept honest safety AND honest progress;
//	degraded safety held but some run starved honest processes within the
//	         step horizon (the corruption's liveness price);
//	violated some run broke an honest-side safety property — the cell's
//	         first violating run is reported with its corrupting-write
//	         trace and flight-recorder tail.
//
// Populations are drawn per run (adversary.DrawPopulation), so a cell's
// verdict aggregates over WHICH processes are faulty as well as over
// schedules. Everything is seed-deterministic and the per-cell tallies fold
// key-wise, so the matrix is invariant under the campaign worker count.
//
// Safety is checked over honest processes only — a Byzantine process's own
// outputs carry no obligations (standard Byzantine semantics); the BG
// target is the exception, its thread decisions are unattributable to
// simulators, so the full check applies.

package explore

import (
	"context"
	"fmt"
	"sort"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// TargetAntiOmega is the anti-Ω detector of Figure 2 at k = t = n/2, a
// byzantine-sweep-only target: its guarantees are liveness-flavored, so
// corruption shows up as degradation rather than safety violation — the
// contrast the degradation matrices are for.
const TargetAntiOmega = "antiomega"

// ByzConfig parameterizes a Byzantine degradation sweep.
type ByzConfig struct {
	// Target is the workload (TargetCommitAdopt, TargetConsensus,
	// TargetCAChain, TargetKSet, TargetBG, or TargetAntiOmega).
	Target string
	// N is the system size.
	N int
	// CrashMax and ByzMax bound the swept fault counts: cells range over
	// crash 0..CrashMax × byz 0..ByzMax, skipping combinations with
	// crash+byz ≥ n.
	CrashMax, ByzMax int
	// Strategies are the corruption strategies swept for byz ≥ 1 cells
	// (byz = 0 cells always run strategy "none" exactly once).
	Strategies []adversary.Strategy
	// Runs is the number of runs per cell (population + schedule samples).
	Runs int
	// Steps is the per-run step horizon.
	Steps int
	// Seed is the master seed; per-cell and per-run seeds derive from it.
	Seed int64
	// Workers is the campaign worker count (0 means GOMAXPROCS).
	Workers int
}

// ByzCell is one classified cell of the degradation matrix.
type ByzCell struct {
	Crash    int    `json:"crash"`
	Byz      int    `json:"byz"`
	Strategy string `json:"strategy"`
	Safe     int    `json:"safe"`
	Degraded int    `json:"degraded"`
	Violated int    `json:"violated"`
	// Class is the worst verdict observed: "violated" > "degraded" > "safe".
	Class string `json:"class"`
	// Violation is the cell's first violating run (in run order), when any:
	// the honest-side check error with the corrupting-write trace and
	// flight-recorder tail attached.
	Violation *Violation `json:"violation,omitempty"`
}

// byzRun is one reusable Byzantine rig: the target's wiring on a NoRecycle
// direct-dispatch runner, plus a pooled Byzantine director reconfigured per
// run.
type byzRun struct {
	targetRig
	n      int
	runner *sim.Runner
	dir    *adversary.Byzantine
}

// newByzRun builds the rig for a target. Mutating directors retain and
// replay register values, so every rig pins NoRecycle (see sim.WriteMutator).
func newByzRun(target string, n int) (*byzRun, error) {
	var rig targetRig
	var err error
	if target == TargetAntiOmega {
		rig, err = antiOmegaRig(n)
	} else if t, ok := targets[target]; ok {
		rig, err = t.rig(n)
	} else {
		err = unknownTarget(target)
	}
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{N: n, NoRecycle: true, Machine: rig.machine})
	if err != nil {
		return nil, err
	}
	dir, err := adversary.NewByzantine(adversary.ByzantineConfig{N: n})
	if err != nil {
		runner.Close()
		return nil, err
	}
	return &byzRun{targetRig: rig, n: n, runner: runner, dir: dir}, nil
}

// antiOmegaRig is the anti-Ω detector's wiring at k = t = n/2. Its
// obligations are liveness-flavored; the checkable safety residue is
// structural: an honest process's published output is either absent or
// exactly n−k live candidates inside Πn.
func antiOmegaRig(n int) (targetRig, error) {
	kcfg := ksetConfig(n)
	acfg := antiomega.Config{N: n, K: kcfg.K, T: kcfg.T}
	det, err := antiomega.NewDetector(acfg, nil)
	if err != nil {
		return targetRig{}, err
	}
	return targetRig{
		machine: det.Machine,
		reset:   det.Reset,
		check: func(corrupt procset.Set) error {
			full := procset.FullSet(n)
			for p := 1; p <= n; p++ {
				id := procset.ID(p)
				if corrupt.Contains(id) {
					continue
				}
				out := det.Output(id)
				if out.IsEmpty() {
					continue
				}
				if out.Size() != n-acfg.K || !out.SubsetOf(full) {
					return fmt.Errorf("p%d published malformed output %v (want %d members of Π%d)", p, out, n-acfg.K, n)
				}
			}
			return nil
		},
		progress: func(honest procset.Set) bool {
			for _, p := range honest.Members() {
				if det.Iterations(p) < 2 {
					return false
				}
			}
			return true
		},
	}, nil
}

// one executes a single Byzantine run: draw nothing (the caller drew the
// population), reconfigure the pooled director, replay the rig, classify.
func (r *byzRun) one(crashed, corrupt procset.Set, strat adversary.Strategy, seed int64, steps int) (string, error) {
	r.reset()
	if err := r.runner.Reset(); err != nil {
		return "", err
	}
	if err := r.dir.Reconfigure(adversary.ByzantineConfig{
		N: r.n, Crashed: crashed, Corrupt: corrupt, Strategy: strat, Seed: seed,
	}); err != nil {
		return "", err
	}
	honest := procset.FullSet(r.n).Minus(crashed).Minus(corrupt)
	r.dir.DriveDirected(r.runner, steps, 500, func() bool { return r.progress(honest) })
	if cerr := r.check(corrupt); cerr != nil {
		return "violated", cerr
	}
	if !r.progress(honest) {
		return "degraded", nil
	}
	return "safe", nil
}

// byzCellKey names a cell for job names and tally keys.
func byzCellKey(crash, byz int, strat adversary.Strategy) string {
	return fmt.Sprintf("c%d,b%d,%s", crash, byz, strat)
}

// worseVerdict orders safe < degraded < violated; "" ranks as safe.
func worseVerdict(a, b string) string {
	rank := map[string]int{"safe": 0, "degraded": 1, "violated": 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// ByzantineCampaign sweeps the degradation grid for cfg.Target: one
// campaign job per cell, cfg.Runs runs per job, each run drawing its
// mixed population from the run seed. It returns the campaign report and
// the classified matrix, cells in deterministic (crash, byz, strategy)
// order. Violated cells are DATA, not campaign failures: the report stays
// green and each cell carries its first violation (trace + flight tail).
func ByzantineCampaign(ctx context.Context, cfg ByzConfig, onResult func(campaign.Outcome)) (*campaign.Report, []ByzCell, error) {
	if cfg.N < 2 || cfg.N > procset.MaxProcs {
		return nil, nil, fmt.Errorf("explore: byzantine sweep needs 2 ≤ n ≤ %d, got %d", procset.MaxProcs, cfg.N)
	}
	if cfg.Runs < 1 || cfg.Steps < 1 {
		return nil, nil, fmt.Errorf("explore: byzantine sweep needs runs ≥ 1 and steps ≥ 1, got %d and %d", cfg.Runs, cfg.Steps)
	}
	if cfg.CrashMax < 0 || cfg.ByzMax < 0 {
		return nil, nil, fmt.Errorf("explore: negative fault bounds (crash %d, byz %d)", cfg.CrashMax, cfg.ByzMax)
	}
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = []adversary.Strategy{adversary.StrategyFlip, adversary.StrategyStale, adversary.StrategySplit}
	}
	type cellID struct {
		crash, byz int
		strat      adversary.Strategy
		key        string
	}
	var grid []cellID
	var cells []campaign.Cell[struct{}]
	add := func(c, b int, s adversary.Strategy) {
		key := byzCellKey(c, b, s)
		grid = append(grid, cellID{c, b, s, key})
		cells = append(cells, campaign.Cell[struct{}]{Name: "byz[" + key + "]", Hi: cfg.Runs})
	}
	for c := 0; c <= cfg.CrashMax; c++ {
		for b := 0; b <= cfg.ByzMax; b++ {
			if c+b >= cfg.N {
				continue
			}
			if b == 0 {
				add(c, 0, adversary.StrategyNone)
				continue
			}
			for _, s := range strategies {
				add(c, b, s)
			}
		}
	}
	if len(cells) == 0 {
		return nil, nil, fmt.Errorf("explore: empty sweep grid (n %d, crash ≤ %d, byz ≤ %d)", cfg.N, cfg.CrashMax, cfg.ByzMax)
	}

	// Violated cells are measurements, not campaign failures: Ok stays true
	// so resilience machinery never retries a cell and the matrix stays
	// deterministic. Each cell's first violation rides its Detail.
	rep, details, err := campaign.RunSweep(ctx, campaign.Sweep[struct{}, *byzRun, *Violation]{
		Config: campaign.Config{Workers: cfg.Workers, Seed: cfg.Seed, OnResult: onResult},
		Cells:  cells,
		Build:  func(struct{}) (*byzRun, error) { return newByzRun(cfg.Target, cfg.N) },
		Runner: func(rig *byzRun) *sim.Runner { return rig.runner },
		Run: func(rig *byzRun, out *campaign.Outcome, j int, jobSeed int64, i int) (bool, error) {
			cell := &grid[j]
			runSeed := campaign.SeedFor(jobSeed, i)
			crashed, corrupt, err := adversary.DrawPopulation(cfg.N, cell.crash, cell.byz, runSeed)
			if err != nil {
				return true, err
			}
			verdict, cerr := rig.one(crashed, corrupt, cell.strat, runSeed, cfg.Steps)
			if verdict == "" {
				return true, cerr
			}
			out.Tallies["cell["+cell.key+"]:"+verdict]++
			out.Tallies["mutations"] += rig.dir.Mutations()
			out.Verdict = worseVerdict(out.Verdict, verdict)
			if verdict == "violated" && out.Detail == nil {
				out.Detail = &Violation{
					Err:    fmt.Errorf("cell[%s] run %d (crashed %v, byzantine %v): %w", cell.key, i, crashed, corrupt, cerr),
					Trace:  rig.dir.FormatTrace(rig.runner),
					Flight: obs.FlightDump(rig.runner),
				}
			}
			return false, nil
		},
		Done: func(out *campaign.Outcome, _, runs int) {
			out.Ok, out.Steps, out.Tallies["runs"] = true, runs, runs
			if out.Verdict == "" {
				out.Verdict = "safe"
			}
		},
	})
	if err != nil {
		return rep, nil, err
	}

	matrix := make([]ByzCell, 0, len(grid))
	for j, cell := range grid {
		key := cell.key
		bc := ByzCell{
			Crash:    cell.crash,
			Byz:      cell.byz,
			Strategy: cell.strat.String(),
			Safe:     rep.Summary.Tallies["cell["+key+"]:safe"],
			Degraded: rep.Summary.Tallies["cell["+key+"]:degraded"],
			Violated: rep.Summary.Tallies["cell["+key+"]:violated"],
		}
		bc.Class, bc.Violation = "safe", details[j]
		if bc.Degraded > 0 {
			bc.Class = "degraded"
		}
		if bc.Violated > 0 {
			bc.Class = "violated"
		}
		matrix = append(matrix, bc)
	}
	sort.SliceStable(matrix, func(i, j int) bool {
		if matrix[i].Crash != matrix[j].Crash {
			return matrix[i].Crash < matrix[j].Crash
		}
		if matrix[i].Byz != matrix[j].Byz {
			return matrix[i].Byz < matrix[j].Byz
		}
		return matrix[i].Strategy < matrix[j].Strategy
	})
	return rep, matrix, nil
}
