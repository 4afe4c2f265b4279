// Adversarial exploration: instead of replaying generated schedules, these
// campaigns hand the schedule to the adaptive parking adversary
// (internal/adversary) and let it react to the run on the simulator's
// directed fast path. The population ranges over crashed-from-start
// patterns — the Theorem 27 case 2(b) "fictitious processes" — and every
// run must end starved (no process decides within the horizon) with the
// two safety properties of k-set agreement intact. A run that decides
// exposes a weakening of the adversary; a run that violates safety exposes
// a solver bug.

package explore

import (
	"context"
	"fmt"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// adversarialRun is one reusable adversarial rig: the Theorem 24 solver on
// the direct-dispatch engine plus a pooled parking adversary. Campaign
// workers hold one rig each and replay it across crash patterns.
type adversarialRun struct {
	cfg    kset.Config
	ag     *kset.Agreement
	runner *sim.Runner
	adv    *adversary.Adversary
}

// newAdversarialRun builds a rig.
func newAdversarialRun(cfg kset.Config) (*adversarialRun, error) {
	ag, err := kset.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{
		N:       cfg.N,
		Machine: ag.Machine(ksetProposal),
	})
	if err != nil {
		return nil, err
	}
	adv, err := adversary.New(adversary.Config{N: cfg.N})
	if err != nil {
		runner.Close()
		return nil, err
	}
	return &adversarialRun{cfg: cfg, ag: ag, runner: runner, adv: adv}, nil
}

// one drives a single adversarial run with the given crash pattern and
// returns its verdict.
func (r *adversarialRun) one(crashed procset.Set, steps int) (verdict string, err error) {
	r.ag.Reset()
	if err := r.runner.Reset(); err != nil {
		return "", err
	}
	if err := r.adv.ResetCrashed(crashed); err != nil {
		return "", err
	}
	_, decided := r.adv.DriveDirected(r.runner, steps, 500, func() bool {
		return !r.ag.DecidedSet().IsEmpty()
	})
	if cerr := checkKSet(r.cfg, r.ag, procset.EmptySet); cerr != nil {
		return "violation", cerr
	}
	if decided {
		return "decided", nil
	}
	return "starved", nil
}

// adversarialCrashPatterns enumerates the crashed-from-start population for
// n processes with k consensus instances at resilience t: the failure-free
// pattern plus every crash set small enough to leave strictly more than k
// live processes, in the canonical subset order (deterministic, so coverage
// is independent of sharding). The bound is the park rule's own limit — with
// at most k processes parked at a time, starvation is guaranteed only while
// an unparked live process always exists; beyond it the degenerate release
// must wake a parked would-be decider, exactly as in the Theorem 27 case
// 2(b) construction, which also keeps its fictitious crashes this small.
func adversarialCrashPatterns(n, k, t int) []procset.Set {
	patterns := []procset.Set{procset.EmptySet}
	maxCrash := min(t, n-k-1)
	for s := 1; s <= maxCrash; s++ {
		patterns = append(patterns, procset.KSubsets(n, s)...)
	}
	return patterns
}

// AdversarialPooledCampaign runs the parking adversary against the Theorem
// 24 construction at k = t = n/2 (the kset fuzz shape) for the given number
// of runs, cycling run index r through the crash-pattern population; the
// seed rotates the cycle's starting point, so campaigns shorter than the
// population can cover different slices of it. Each run executes up to
// steps steps on a pooled rig via directed dispatch. Verdicts tally as
// "starved" (expected), "decided" (the adversary failed to starve the
// solver), or "violation" (a safety property broke — returned as the
// campaign's first failure). It returns the number of runs executed.
func AdversarialPooledCampaign(ctx context.Context, workers, n, steps, runs int, seed int64, onResult func(campaign.Outcome)) (*campaign.Report, int, error) {
	cfg := ksetConfig(n)
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if steps < 1 || runs < 1 {
		return nil, 0, fmt.Errorf("explore: adversarial campaign needs steps ≥ 1 and runs ≥ 1, got %d and %d", steps, runs)
	}
	patterns := adversarialCrashPatterns(n, cfg.K, cfg.T)
	offset := int(((seed % int64(len(patterns))) + int64(len(patterns))) % int64(len(patterns)))
	rep, details, err := campaign.RunSweep(ctx, campaign.Sweep[struct{}, *adversarialRun, *Violation]{
		Config: campaign.Config{Workers: workers, Seed: seed, StopOnFail: true, OnResult: onResult},
		Cells:  batches("adv", runs),
		Build:  func(struct{}) (*adversarialRun, error) { return newAdversarialRun(cfg) },
		Runner: func(rig *adversarialRun) *sim.Runner { return rig.runner },
		Run: func(rig *adversarialRun, out *campaign.Outcome, _ int, _ int64, i int) (bool, error) {
			verdict, err := rig.one(patterns[(i+offset)%len(patterns)], steps)
			if verdict == "" {
				return true, err
			}
			out.Tallies[verdict]++
			if verdict != "violation" {
				return false, nil
			}
			// Directed runs have no replayable schedule: the flight tail
			// (with -flight) is the failure's context.
			out.Verdict, out.Detail = verdict, &Violation{Err: err, Flight: obs.FlightDump(rig.runner)}
			return true, nil
		},
		Done: func(out *campaign.Outcome, _, runs int) {
			out.Steps, out.Tallies["runs"] = runs, runs
			switch {
			case out.Verdict != "":
			case out.Tallies["decided"] > 0:
				// Not a safety bug, but the adversary's starvation
				// guarantee failed — surface it as a job failure.
				out.Verdict = "decided"
			default:
				out.Verdict, out.Ok = "starved", true
			}
		},
	})
	if err != nil {
		return rep, 0, err
	}
	executed := rep.Summary.Tallies["runs"]
	if len(rep.Failures) > 0 {
		if v := details[rep.Failures[0].Job]; v != nil {
			return rep, executed, v
		}
		return rep, executed, fmt.Errorf("explore: adversary failed to starve the solver in %d job(s)", len(rep.Failures))
	}
	return rep, executed, nil
}
