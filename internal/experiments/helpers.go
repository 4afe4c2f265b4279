package experiments

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/antiomega"
	"github.com/settimeliness/settimeliness/internal/check"
	"github.com/settimeliness/settimeliness/internal/fd"
	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// detectorRun is the outcome of driving the Figure 2 algorithm on a source.
type detectorRun struct {
	Stable     bool
	Winnerset  procset.Set
	Verdict    fd.Verdict
	Steps      int
	Iterations int
}

// detectorRig bundles a reusable detector run: the direct-dispatch runner,
// the detector harness, and the output history. The convergence campaign
// pools rigs across jobs (reset restores all three); the one-shot drivers
// build a fresh rig per run.
type detectorRig struct {
	cfg    antiomega.Config
	runner *sim.Runner
	det    *antiomega.Detector
	hist   *fd.History
}

// newDetectorRig builds the rig on the machine (direct-dispatch) path — the
// hot path of every detector experiment; equivalence with the coroutine
// path is pinned by the antiomega machine tests.
func newDetectorRig(cfg antiomega.Config) (*detectorRig, error) {
	rig := &detectorRig{cfg: cfg, hist: fd.NewHistory(cfg.N)}
	det, err := antiomega.NewDetector(cfg, func(p procset.ID, out procset.Set) {
		rig.hist.Record(rig.runner.Steps(), p, out)
	})
	if err != nil {
		return nil, err
	}
	rig.det = det
	rig.runner, err = sim.NewRunner(sim.Config{N: cfg.N, Machine: det.Machine})
	if err != nil {
		return nil, err
	}
	return rig, nil
}

// reset restores the rig to its initial state for the next pooled job.
func (rig *detectorRig) reset() error {
	rig.det.Reset()
	rig.hist.Reset()
	return rig.runner.Reset()
}

// drive runs the detector until the correct processes publish one common
// winnerset for a sustained streak of probes, then verifies the k-anti-Ω
// property on the recorded output history.
func (rig *detectorRig) drive(src sched.Source, maxSteps int) detectorRun {
	runner, det := rig.runner, rig.det
	correct := src.Correct()
	streak := 0
	var last procset.Set
	res := runner.Run(src, maxSteps, 500, func() bool {
		w, ok := det.StableWinnerset(correct)
		if !ok {
			streak = 0
			return false
		}
		if w == last {
			streak++
		} else {
			last, streak = w, 1
		}
		for _, p := range correct.Members() {
			if det.Iterations(p) < 5 {
				return false
			}
		}
		return streak >= 20
	})
	run := detectorRun{Stable: res.Stopped, Steps: runner.Steps()}
	if w, ok := det.StableWinnerset(correct); ok {
		run.Winnerset = w
	}
	for _, p := range correct.Members() {
		if it := det.Iterations(p); it > run.Iterations {
			run.Iterations = it
		}
	}
	run.Verdict = rig.hist.Check(rig.cfg.K, correct)
	return run
}

// driveDetector is the one-shot form: a fresh rig driven once.
func driveDetector(cfg antiomega.Config, src sched.Source, maxSteps int) (detectorRun, error) {
	rig, err := newDetectorRig(cfg)
	if err != nil {
		return detectorRun{}, err
	}
	defer rig.runner.Close()
	return rig.drive(src, maxSteps), nil
}

// detectorChurn summarizes a full-budget detector run with no early stop:
// the number of output changes overall and in the last half of the run.
// A detector that satisfies the k-anti-Ω property on an infinite run must
// eventually stop changing; "changes in the last half" is the finite-run
// witness that it does not.
type detectorChurn struct {
	TotalChanges    int
	LastHalfChanges int
	SettledLastHalf bool
}

// driveDetectorChurn runs the detector for exactly maxSteps and reports
// output churn. Used by the negative experiments (E4, E8), where streak
// probing would be fooled by the adversary's ever-growing quiet phases.
func driveDetectorChurn(cfg antiomega.Config, src sched.Source, maxSteps int) (detectorChurn, error) {
	var (
		runner *sim.Runner
		events []int
	)
	det, err := antiomega.NewDetector(cfg, func(p procset.ID, out procset.Set) {
		events = append(events, runner.Steps())
	})
	if err != nil {
		return detectorChurn{}, err
	}
	runner, err = sim.NewRunner(sim.Config{N: cfg.N, Machine: det.Machine})
	if err != nil {
		return detectorChurn{}, err
	}
	defer runner.Close()
	runner.Run(src, maxSteps, 0, nil)
	churn := detectorChurn{TotalChanges: len(events)}
	half := maxSteps / 2
	for _, at := range events {
		if at >= half {
			churn.LastHalfChanges++
		}
	}
	churn.SettledLastHalf = churn.LastHalfChanges == 0
	return churn, nil
}

// agreementRun is the outcome of a full (t,k,n)-agreement execution.
type agreementRun struct {
	AllDecided   bool
	FirstDecide  int // step of the first decision (-1 if none)
	LastDecide   int // step of the last decision among correct processes
	Distinct     int
	Decisions    map[procset.ID]any
	Violations   []error
	SafetyErrors []error
	Steps        int
}

// proposalStrings holds the "v<p>" proposal values, computed once for the
// whole package instead of one fmt.Sprintf per process per run (the matrix
// campaign drives thousands of runs).
var proposalStrings = func() [procset.MaxProcs + 1]any {
	var out [procset.MaxProcs + 1]any
	for p := 1; p <= procset.MaxProcs; p++ {
		out[p] = fmt.Sprintf("v%d", p)
	}
	return out
}()

// agreementRig bundles a reusable (t,k,n)-agreement run: the solver, its
// direct-dispatch runner, and — for the negative cells — a pooled parking
// adversary. The matrix campaign pools rigs per configuration across cells
// (reset restores everything); the one-shot drivers build a fresh rig per
// run. This mirrors detectorRig for the agreement workloads.
type agreementRig struct {
	cfg    kset.Config
	ag     *kset.Agreement
	runner *sim.Runner
	adv    *adversary.Adversary // created on first adversarial drive

	// onDecide is the per-run decision hook; the kset callback dispatches
	// through it so one Agreement serves many pooled runs.
	onDecide func(p procset.ID, v any)
}

func newAgreementRig(cfg kset.Config) (*agreementRig, error) {
	rig := &agreementRig{cfg: cfg}
	ag, err := kset.New(cfg, func(p procset.ID, v any) {
		if rig.onDecide != nil {
			rig.onDecide(p, v)
		}
	})
	if err != nil {
		return nil, err
	}
	rig.ag = ag
	rig.runner, err = sim.NewRunner(sim.Config{
		N:       cfg.N,
		Machine: ag.Machine(func(p procset.ID) any { return proposalStrings[p] }),
	})
	if err != nil {
		return nil, err
	}
	return rig, nil
}

// reset restores the rig for the next pooled run. The adversary (if any) is
// reset by the adversarial driver, which also reconfigures its crash set.
func (rig *agreementRig) reset() error {
	rig.onDecide = nil
	rig.ag.Reset()
	return rig.runner.Reset()
}

// harvest summarizes the completed run from the harness state.
func (rig *agreementRig) harvest(run *agreementRun, correct procset.Set) {
	run.Distinct = rig.ag.DistinctDecisions()
	for p := 1; p <= rig.cfg.N; p++ {
		if v, ok := rig.ag.Decision(procset.ID(p)); ok {
			run.Decisions[procset.ID(p)] = v
		}
	}
	run.Violations, run.SafetyErrors = verifyAgreement(rig.cfg, run.Decisions, correct)
}

// driveConformant runs the solver on a schedule source and verifies the
// three agreement properties afterwards. It runs on the machine
// (direct-dispatch) path and hence on Run's batched loop — the hot
// configuration of E3, E5, and the matrix campaigns; equivalence with the
// coroutine path is pinned by the kset machine tests.
func (rig *agreementRig) driveConformant(src sched.Source, maxSteps int) agreementRun {
	run := agreementRun{FirstDecide: -1, LastDecide: -1, Decisions: make(map[procset.ID]any)}
	rig.onDecide = func(p procset.ID, v any) {
		if run.FirstDecide < 0 {
			run.FirstDecide = rig.runner.Steps()
		}
		run.LastDecide = rig.runner.Steps()
	}
	correct := src.Correct()
	res := rig.runner.Run(src, maxSteps, 200, func() bool {
		return correct.SubsetOf(rig.ag.DecidedSet())
	})
	run.AllDecided = res.Stopped
	run.Steps = rig.runner.Steps()
	rig.harvest(&run, correct)
	return run
}

// driveAdversarial runs the solver under the adaptive parking adversary on
// the simulator's directed fast path, with the given processes crashed from
// the start. The park rule guarantees no decision register is ever written,
// so the run demonstrates non-termination within the horizon; the caller
// checks safety and schedule conformance. The returned schedule is the
// adversary's bounded recording and is only valid until the rig's next run.
func (rig *agreementRig) driveAdversarial(crashed procset.Set, maxSteps int) (agreementRun, sched.Schedule, error) {
	run := agreementRun{FirstDecide: -1, LastDecide: -1, Decisions: make(map[procset.ID]any)}
	if rig.adv == nil {
		adv, err := adversary.New(adversary.Config{N: rig.cfg.N, CrashedFromStart: crashed})
		if err != nil {
			return run, nil, err
		}
		rig.adv = adv
	} else if err := rig.adv.ResetCrashed(crashed); err != nil {
		return run, nil, err
	}
	rig.onDecide = func(p procset.ID, v any) {
		if run.FirstDecide < 0 {
			run.FirstDecide = rig.runner.Steps()
		}
		run.LastDecide = rig.runner.Steps()
	}
	correct := rig.adv.Correct()
	steps, stopped := rig.adv.DriveDirected(rig.runner, maxSteps, 200, func() bool {
		return correct.SubsetOf(rig.ag.DecidedSet())
	})
	run.AllDecided = stopped
	run.Steps = steps
	rig.harvest(&run, correct)
	return run, rig.adv.Schedule(), nil
}

// driveAgreement is the one-shot form: a fresh rig driven once.
func driveAgreement(cfg kset.Config, src sched.Source, maxSteps int) (agreementRun, error) {
	rig, err := newAgreementRig(cfg)
	if err != nil {
		return agreementRun{}, err
	}
	defer rig.runner.Close()
	return rig.driveConformant(src, maxSteps), nil
}

// driveAgreementAdversarial is the one-shot adversarial form.
func driveAgreementAdversarial(cfg kset.Config, crashed procset.Set, maxSteps int) (agreementRun, sched.Schedule, error) {
	rig, err := newAgreementRig(cfg)
	if err != nil {
		return agreementRun{}, nil, err
	}
	defer rig.runner.Close()
	return rig.driveAdversarial(crashed, maxSteps)
}

func verifyAgreement(cfg kset.Config, decisions map[procset.ID]any, correct procset.Set) (all, safety []error) {
	props := make(map[procset.ID]any, cfg.N)
	for p := 1; p <= cfg.N; p++ {
		props[procset.ID(p)] = proposalStrings[p]
	}
	run := check.AgreementRun{
		N: cfg.N, K: cfg.K, T: cfg.T,
		Proposals: props,
		Decisions: decisions,
		Correct:   correct,
	}
	return run.Violations(), run.SafetyViolations()
}

// boolMark renders pass/fail cells.
func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func crashSuffix(crashes map[procset.ID]int) string {
	if len(crashes) == 0 {
		return "none"
	}
	out := ""
	for p := procset.ID(1); int(p) <= procset.MaxProcs; p++ {
		if at, ok := crashes[p]; ok {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%v@%d", p, at)
		}
	}
	return out
}
