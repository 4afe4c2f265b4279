package experiments

import (
	"cmp"
	"context"
	"fmt"

	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Campaign adapters: the detector-convergence sweep and the timeliness-
// relation extraction both fan out over the campaign engine, using the
// engine's derived per-job seeds so one campaign seed reproduces the whole
// population bit for bit at any worker count.

// ConvergenceConfig parameterizes a detector-convergence campaign: Trials
// independent runs of the Figure 2 algorithm in its matching system
// S^k_{t+1,n}, each on a schedule generated from a derived seed.
type ConvergenceConfig struct {
	N, K, T int
	// Bound is the Definition 1 constant enforced by the generator; 0 means 4.
	Bound int
	// Trials is the number of independent runs.
	Trials int
	// MaxSteps bounds each run; 0 means 2,000,000.
	MaxSteps int
	// Workers is the campaign pool size; 0 means GOMAXPROCS.
	Workers int
}

// RunConvergenceSweep measures detector convergence across a population of
// schedules: each trial reports stabilization (verdict "stable"), steps to
// stabilization, and the k-anti-Ω property check on the recorded history.
//
// Trials execute on the pooled direct-dispatch path: each campaign worker
// keeps one detector rig (runner + harness + history) and replays it via
// Reset, so a sweep of thousands of trials builds at most one rig per
// worker. Summaries are bit-identical to unpooled execution.
func RunConvergenceSweep(ctx context.Context, cfg ConvergenceConfig, seed int64, onResult func(campaign.Outcome)) (*campaign.Report, error) {
	acfg := antiomega.Config{N: cfg.N, K: cfg.K, T: cfg.T}
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	bound, maxSteps := cmp.Or(cfg.Bound, 4), cmp.Or(cfg.MaxSteps, 2_000_000)
	trials := make([]campaign.Cell[struct{}], cfg.Trials)
	for t := range trials {
		trials[t] = campaign.Cell[struct{}]{Name: fmt.Sprintf("trial%d", t), Hi: 1}
	}
	rep, _, err := campaign.RunSweep(ctx, campaign.Sweep[struct{}, *detectorRig, struct{}]{
		Config: campaign.Config{Workers: cfg.Workers, Seed: seed, OnResult: onResult},
		Cells:  trials,
		Build:  func(struct{}) (*detectorRig, error) { return newDetectorRig(acfg) },
		Runner: func(rig *detectorRig) *sim.Runner { return rig.runner },
		Run: func(rig *detectorRig, out *campaign.Outcome, _ int, jobSeed int64, _ int) (bool, error) {
			src, _, err := sched.System(cfg.N, cfg.K, cfg.T+1, bound, jobSeed, nil)
			if err != nil {
				return true, err
			}
			if err := rig.reset(); err != nil {
				return true, err
			}
			run := rig.drive(src, maxSteps)
			out.Verdict, out.Ok, out.Steps = "stable", run.Stable && run.Verdict.Holds, run.Steps
			switch {
			case !run.Stable:
				out.Verdict = "no-convergence"
			case !run.Verdict.Holds:
				out.Verdict = "property-failed"
			}
			out.Tallies["iterations"] = run.Iterations
			return false, nil
		},
	})
	return rep, err
}

// RelationsConfig parameterizes timeliness-relation extraction: generate a
// population of schedules and measure, for every system S^i_{j,n} of the
// family, the fraction of the population whose finite prefix witnesses
// membership (some i-set timely w.r.t. some j-set with the given bound) —
// the empirical timeliness graph of the schedule population, in the spirit
// of Delporte-Gallet et al.'s timeliness-graph extraction.
type RelationsConfig struct {
	// N is the system size, 2..6 (the membership check enumerates pairs of
	// subsets of Πn).
	N int
	// Bound is the Definition 1 constant tested; 0 means 4, and a negative
	// bound is an error.
	Bound int
	// Steps is the prefix length analyzed per schedule; 0 means 2000, and a
	// negative length is an error.
	Steps int
	// Schedules is the population size (not negative).
	Schedules int
	// Generator picks the population: "random", "starver", or "mixed"
	// (alternating); "" means random.
	Generator string
	// Workers is the campaign pool size; 0 means GOMAXPROCS.
	Workers int
}

// RelationKey names the tally bucket for membership in S^i_{j,n}.
func RelationKey(i, j int) string { return fmt.Sprintf("S^%d_%d", i, j) }

// relationsMaxN is the largest system size relations extraction supports.
const relationsMaxN = 6

// relationKeys tabulates RelationKey(i, j) for 1 ≤ i ≤ j ≤ n.
func relationKeys(n int) (keys [relationsMaxN + 1][relationsMaxN + 1]string) {
	for i := 1; i <= n; i++ {
		for j := i; j <= n; j++ {
			keys[i][j] = RelationKey(i, j)
		}
	}
	return keys
}

// RunRelationsCampaign extracts the empirical timeliness relations of a
// generated schedule population. Summary.Tallies[RelationKey(i,j)] counts
// the schedules whose prefix witnesses S^i_{j,n} membership, which
// obs.HeldClasses decides for the whole family of a schedule at once.
func RunRelationsCampaign(ctx context.Context, cfg RelationsConfig, seed int64, onResult func(campaign.Outcome)) (*campaign.Report, error) {
	if cfg.N < 2 || cfg.N > relationsMaxN {
		return nil, fmt.Errorf("experiments: relations extraction supports 2 ≤ n ≤ %d, got %d", relationsMaxN, cfg.N)
	}
	if cfg.Bound < 0 || cfg.Steps < 0 || cfg.Schedules < 0 {
		return nil, fmt.Errorf("experiments: relations extraction needs a non-negative bound, steps and schedules, got %d, %d and %d", cfg.Bound, cfg.Steps, cfg.Schedules)
	}
	bound, steps, gen := cmp.Or(cfg.Bound, 4), cmp.Or(cfg.Steps, 2000), cmp.Or(cfg.Generator, "random")
	switch gen {
	case "random", "starver", "mixed":
	default:
		return nil, fmt.Errorf("experiments: unknown generator %q (want random, starver, or mixed)", gen)
	}
	// Each worker draws its random schedules from one reseeded source and
	// analyses every schedule in one recycled buffer, which FillBlock
	// overwrites in full.
	type scratch struct {
		random sched.RandomSource
		buf    sched.Schedule
	}
	keys := relationKeys(cfg.N)
	population := make([]campaign.Cell[struct{}], cfg.Schedules)
	for idx := range population {
		population[idx] = campaign.Cell[struct{}]{Name: fmt.Sprintf("schedule%d", idx), Hi: 1}
	}
	rep, _, err := campaign.RunSweep(ctx, campaign.Sweep[struct{}, *scratch, struct{}]{
		Config: campaign.Config{Workers: cfg.Workers, Seed: seed, OnResult: onResult},
		Cells:  population,
		Build: func(struct{}) (*scratch, error) {
			random, err := sched.Random(cfg.N, 0, nil) // reseeded per job
			return &scratch{random, make(sched.Schedule, steps)}, err
		},
		Run: func(sc *scratch, out *campaign.Outcome, idx int, jobSeed int64, _ int) (bool, error) {
			var src sched.Source
			var err error
			kind := gen
			if gen == "mixed" {
				kind = [2]string{"random", "starver"}[idx%2]
			}
			switch kind {
			case "random":
				err = sc.random.Reseed(jobSeed, nil)
				src = sc.random
			case "starver":
				// Vary the starved-set size with the derived seed so the
				// population spans the family.
				k := int(uint64(jobSeed)%uint64(cfg.N-1)) + 1
				src, err = sched.RotatingStarver(cfg.N, k, 1)
			}
			if err != nil {
				return true, err
			}
			sched.FillBlock(src, sc.buf)
			out.Tallies["schedules"] = 1
			classes, held := obs.HeldClasses(sc.buf, cfg.N, bound), 0
			for i := 1; i <= cfg.N; i++ {
				for j := i; j <= classes[i]; j++ {
					out.Tallies[keys[i][j]]++
					held++
				}
			}
			out.Verdict, out.Ok, out.Steps = kind, true, held
			return false, nil
		},
	})
	return rep, err
}
