package kset

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// TestDetectorPathSolvesTheorem24 runs the detector path on conformant
// schedules with a crash: every correct process decides and the run
// verifies.
func TestDetectorPathSolvesTheorem24(t *testing.T) {
	t.Parallel()
	cases := []struct {
		cfg     Config
		crashes map[procset.ID]int
	}{
		{Config{N: 3, K: 1, T: 1}, map[procset.ID]int{3: 25}},
		{Config{N: 4, K: 2, T: 2}, map[procset.ID]int{4: 60}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%dk%dt%d", tc.cfg.N, tc.cfg.K, tc.cfg.T), func(t *testing.T) {
			t.Parallel()
			src, _, err := sched.System(tc.cfg.N, tc.cfg.K, tc.cfg.T+1, 4, 17, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			ag, done := runAgreement(t, tc.cfg, src, 2_000_000)
			if !done {
				t.Fatalf("did not decide (decided %v)", ag.DecidedSet())
			}
			verifyRun(t, ag, src.Correct())
		})
	}
}

// TestSafetyUnderAdversarialContention fuzzes the detector path with
// everyone racing: distinct decisions must never exceed k.
func TestSafetyUnderAdversarialContention(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 10; seed++ {
		cfg := Config{N: 4, K: 2, T: 2}
		src, err := sched.Random(4, seed, map[procset.ID]int{procset.ID(seed%4 + 1): int(seed * 13 % 70)})
		if err != nil {
			t.Fatal(err)
		}
		ag, _ := runAgreement(t, cfg, src, 150_000)
		if got := ag.DistinctDecisions(); got > 2 {
			t.Errorf("seed %d: %d distinct decisions", seed, got)
		}
	}
}
