package adversary

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{N: 0}); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := New(Config{N: 2, CrashedFromStart: procset.MakeSet(1, 2)}); err == nil {
		t.Error("all-crashed accepted")
	}
	adv, err := New(Config{N: 3, CrashedFromStart: procset.MakeSet(3)})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Correct() != procset.MakeSet(1, 2) {
		t.Errorf("Correct = %v", adv.Correct())
	}
	if err := adv.ResetCrashed(procset.MakeSet(1, 2, 3)); err == nil {
		t.Error("ResetCrashed accepted an all-crashed set")
	}
}

// newKsetRunner builds the Theorem 24 workload the adversary is specialized
// against, in either execution mode.
func newKsetRunner(t *testing.T, cfg kset.Config, machineMode bool) (*kset.Agreement, *sim.Runner) {
	t.Helper()
	ag, err := kset.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	proposal := func(p procset.ID) any { return int(p) }
	scfg := sim.Config{N: cfg.N}
	if machineMode {
		scfg.Machine = ag.Machine(proposal)
	} else {
		scfg.Algorithm = ag.Algorithm(proposal)
	}
	runner, err := sim.NewRunner(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return ag, runner
}

// TestParkingPreventsDecisions is the core property: against the Theorem 24
// construction for (k,k,n), the adversary prevents every decision while
// keeping every (k+1)-set timely (the schedule stays in S^{k+1}_{n,n}).
func TestParkingPreventsDecisions(t *testing.T) {
	t.Parallel()
	cases := []struct{ k, n int }{{1, 3}, {2, 4}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("k%d_n%d", tc.k, tc.n), func(t *testing.T) {
			t.Parallel()
			ag, runner := newKsetRunner(t, kset.Config{N: tc.n, K: tc.k, T: tc.k}, false)
			defer runner.Close()
			adv, err := New(Config{N: tc.n, ScheduleLimit: RecordAll})
			if err != nil {
				t.Fatal(err)
			}
			steps, stopped := adv.DriveDirected(runner, 250_000, 100, func() bool {
				return !ag.DecidedSet().IsEmpty()
			})
			if stopped {
				t.Fatalf("a process decided after %d steps despite the parking adversary", steps)
			}
			if got := ag.DecidedSet(); !got.IsEmpty() {
				t.Fatalf("decided set %v not empty", got)
			}
			// Schedule conformance: every (k+1)-set timely w.r.t. Πn with a
			// modest bound on a long prefix.
			s := adv.Schedule()
			full := procset.FullSet(tc.n)
			for _, set := range procset.KSubsets(tc.n, tc.k+1) {
				if b := sched.MinBound(s, set, full); b > 4*tc.n {
					t.Errorf("set %v has bound %d; schedule left S^%d_{%d,%d}",
						set, b, tc.k+1, tc.n, tc.n)
				}
			}
		})
	}
}

func TestParkedNeverExceedsInstances(t *testing.T) {
	t.Parallel()
	ag, runner := newKsetRunner(t, kset.Config{N: 4, K: 2, T: 2}, false)
	_ = ag
	defer runner.Close()
	adv, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	adv.DriveDirected(runner, 120_000, 1, func() bool {
		if adv.MaxParked() > worst {
			worst = adv.MaxParked()
		}
		return false
	})
	if worst > 2 {
		t.Errorf("parked %d processes at once; invariant allows at most k = 2", worst)
	}
}

func TestCrashedTailNeverScheduled(t *testing.T) {
	t.Parallel()
	ag, runner := newKsetRunner(t, kset.Config{N: 5, K: 2, T: 3}, false)
	_ = ag
	defer runner.Close()
	crashed := procset.MakeSet(4, 5)
	adv, err := New(Config{N: 5, CrashedFromStart: crashed, ScheduleLimit: RecordAll})
	if err != nil {
		t.Fatal(err)
	}
	adv.DriveDirected(runner, 50_000, 0, nil)
	s := adv.Schedule()
	if got := s.Steps(crashed); got != 0 {
		t.Errorf("crashed processes took %d steps", got)
	}
	if !s.Participants().SubsetOf(procset.MakeSet(1, 2, 3)) {
		t.Errorf("participants = %v", s.Participants())
	}
}

// advOutcome is everything observable about one adversarial run, compared
// bit for bit across execution modes and pooled reuse.
type advOutcome struct {
	steps    int
	stopped  bool
	schedule string
	decided  procset.Set
	parked   int
}

func driveOutcome(t *testing.T, cfg kset.Config, crashed procset.Set, budget int, machineMode bool, reuse int) advOutcome {
	t.Helper()
	ag, runner := newKsetRunner(t, cfg, machineMode)
	defer runner.Close()
	adv, err := New(Config{N: cfg.N, CrashedFromStart: crashed, ScheduleLimit: RecordAll})
	if err != nil {
		t.Fatal(err)
	}
	var out advOutcome
	for round := 0; round <= reuse; round++ {
		if round > 0 {
			adv.Reset()
			ag.Reset()
			if err := runner.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		steps, stopped := adv.DriveDirected(runner, budget, 200, func() bool { return !ag.DecidedSet().IsEmpty() })
		out = advOutcome{
			steps:    steps,
			stopped:  stopped,
			schedule: adv.Schedule().String(),
			decided:  ag.DecidedSet(),
			parked:   adv.MaxParked(),
		}
	}
	return out
}

// directedCases are the configurations of the directed equivalence and
// golden tests, one with processes crashed from the start.
var directedCases = []struct {
	name    string
	cfg     kset.Config
	crashed procset.Set
}{
	{"k1_n3", kset.Config{N: 3, K: 1, T: 1}, procset.EmptySet},
	{"k2_n4", kset.Config{N: 4, K: 2, T: 2}, procset.EmptySet},
	{"k2_n5_crashed", kset.Config{N: 5, K: 2, T: 3}, procset.MakeSet(5)},
}

// directedBudget is the step budget of every directedCases run.
const directedBudget = 30_000

// TestDirectedMatchesCoroutine pins the directed fast path's equivalence:
// on the machine runner it produces bit-identical schedules, park/resume
// decisions, and outcomes to the same adversary on a coroutine runner
// (where RunDirected calls Step per entry) and to Reset reuse of one pooled
// rig, across configurations and crash sets.
func TestDirectedMatchesCoroutine(t *testing.T) {
	t.Parallel()
	for _, tc := range directedCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			directed := driveOutcome(t, tc.cfg, tc.crashed, directedBudget, true, 0)
			coroutine := driveOutcome(t, tc.cfg, tc.crashed, directedBudget, false, 0)
			if directed != coroutine {
				t.Errorf("coroutine directed run diverges:\n  machine   %+v\n  coroutine %+v",
					redact(directed), redact(coroutine))
			}
			// Reset reuse: the third run on one pooled rig replays the first.
			reused := driveOutcome(t, tc.cfg, tc.crashed, directedBudget, true, 2)
			if directed != reused {
				t.Errorf("pooled reuse diverges:\n  fresh  %+v\n  reused %+v",
					redact(directed), redact(reused))
			}
		})
	}
}

// redact trims the schedule string for readable failure output.
func redact(o advOutcome) advOutcome {
	if len(o.schedule) > 120 {
		o.schedule = o.schedule[:120] + "…"
	}
	return o
}

// TestScheduleRecordingBounded pins the satellite: recording stops at the
// configured bound while scheduling continues, and RecordAll disables the
// bound.
func TestScheduleRecordingBounded(t *testing.T) {
	t.Parallel()
	ag, runner := newKsetRunner(t, kset.Config{N: 3, K: 1, T: 1}, true)
	_ = ag
	defer runner.Close()
	adv, err := New(Config{N: 3, ScheduleLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	adv.DriveDirected(runner, 5000, 0, nil)
	if got := len(adv.Schedule()); got != 1000 {
		t.Errorf("recorded %d entries, want the 1000-entry bound", got)
	}
	if adv.Steps() != 5000 {
		t.Errorf("Steps = %d, want 5000", adv.Steps())
	}
	// The default bound kicks in at DefaultScheduleLimit.
	adv2, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Reset(); err != nil {
		t.Fatal(err)
	}
	adv2.DriveDirected(runner, DefaultScheduleLimit+500, 0, nil)
	if got := len(adv2.Schedule()); got != DefaultScheduleLimit {
		t.Errorf("recorded %d entries, want DefaultScheduleLimit = %d", got, DefaultScheduleLimit)
	}
}

// TestResetClearsState drives, resets, and checks the run state is back to
// initial while the metadata binding survives.
func TestResetClearsState(t *testing.T) {
	t.Parallel()
	ag, runner := newKsetRunner(t, kset.Config{N: 3, K: 1, T: 1}, true)
	_ = ag
	defer runner.Close()
	adv, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	adv.DriveDirected(runner, 10_000, 0, nil)
	if adv.Steps() == 0 || len(adv.Schedule()) == 0 {
		t.Fatal("drive recorded nothing")
	}
	adv.Reset()
	if adv.Steps() != 0 || len(adv.Schedule()) != 0 || adv.MaxParked() != 0 {
		t.Errorf("Reset left state: steps=%d sched=%d parked=%d",
			adv.Steps(), len(adv.Schedule()), adv.MaxParked())
	}
}
