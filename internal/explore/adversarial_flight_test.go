package explore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// An adversarial run shorter than the flight ring leaves a tail of its own
// steps only — the tail a violation of that run reports. The ring keeps
// steps across Runner.Reset, so without the sweep driver's per-run reset
// the tail would open with the steps of earlier runs on the same rig. One
// worker replays one rig over more runs than one 64-run batch.
func TestAdversarialFlightTailIsPerRun(t *testing.T) {
	const n, steps, ring, runs = 4, 40, 256, 70
	cfg := ksetConfig(n)
	want := fmt.Sprintf("flight recorder: last %d step(s)\n", steps)
	ctx := campaign.WithOptions(context.Background(), campaign.Options{Flight: ring})
	rep, _, err := campaign.RunSweep(ctx, campaign.Sweep[struct{}, *adversarialRun, struct{}]{
		Config: campaign.Config{Workers: 1},
		Cells:  batches("adv", runs),
		Build:  func(struct{}) (*adversarialRun, error) { return newAdversarialRun(cfg) },
		Runner: func(rig *adversarialRun) *sim.Runner { return rig.runner },
		Run: func(rig *adversarialRun, out *campaign.Outcome, _ int, _ int64, i int) (bool, error) {
			verdict, err := rig.one(procset.EmptySet, steps)
			out.Tallies[verdict]++
			if tail := obs.FlightDump(rig.runner); !strings.HasPrefix(tail, want) {
				t.Errorf("run %d: tail does not hold just this run's %d steps:\n%.200s", i, steps, tail)
			}
			return false, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Tallies["starved"] != runs {
		t.Fatalf("tallies = %v, want %d starved runs", rep.Summary.Tallies, runs)
	}
}
