package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/core"
)

// TestMatrixCampaignDeterministicAcrossWorkers is the engine acceptance
// check on a real workload: the full empirical matrix of a small problem
// must produce identical cells, summary, and JSONL stream at workers=1 and
// workers=8.
func TestMatrixCampaignDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	p := core.Problem{T: 1, K: 1, N: 2}
	run := func(workers int) ([]MatrixCell, campaign.Summary, string) {
		var buf bytes.Buffer
		sink, sinkErr := campaign.JSONLSink(&buf)
		cells, rep, err := MatrixSweep(context.Background(), []core.Problem{p}, 7, 500_000, 20_000, workers, sink)
		if err != nil {
			t.Fatal(err)
		}
		if *sinkErr != nil {
			t.Fatal(*sinkErr)
		}
		return cells, rep.Summary, buf.String()
	}
	c1, s1, j1 := run(1)
	c8, s8, j8 := run(8)
	if !reflect.DeepEqual(c1, c8) {
		t.Errorf("cells differ:\nworkers=1: %+v\nworkers=8: %+v", c1, c8)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("summaries differ:\nworkers=1: %+v\nworkers=8: %+v", s1, s8)
	}
	if j1 != j8 {
		t.Error("JSONL streams differ between worker counts")
	}
	if len(c1) != 3 {
		t.Fatalf("cells = %d, want 3", len(c1))
	}
	for _, c := range c1 {
		if !c.Match {
			t.Errorf("cell (%d,%d) did not match: %s", c.I, c.J, c.Empirical)
		}
	}
	if s1.Ok != 3 || s1.Failed != 0 {
		t.Errorf("summary = %+v", s1)
	}
}

func TestConvergenceSweepDeterministic(t *testing.T) {
	t.Parallel()
	cfg := ConvergenceConfig{N: 3, K: 1, T: 1, Trials: 4}
	run := func(workers int) campaign.Summary {
		cfg := cfg
		cfg.Workers = workers
		rep, err := RunConvergenceSweep(context.Background(), cfg, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary
	}
	s1, s8 := run(1), run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("summaries differ:\nworkers=1: %+v\nworkers=8: %+v", s1, s8)
	}
	if s1.Verdicts["stable"] != 4 {
		t.Errorf("verdicts = %v", s1.Verdicts)
	}
	if s1.Steps.Min <= 0 {
		t.Errorf("steps = %+v", s1.Steps)
	}
}

func TestRelationsCampaign(t *testing.T) {
	t.Parallel()
	cfg := RelationsConfig{N: 3, Bound: 4, Steps: 300, Schedules: 12, Generator: "mixed"}
	run := func(workers int) campaign.Summary {
		cfg := cfg
		cfg.Workers = workers
		rep, err := RunRelationsCampaign(context.Background(), cfg, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary
	}
	s1, s8 := run(1), run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("summaries differ:\nworkers=1: %+v\nworkers=8: %+v", s1, s8)
	}
	if s1.Tallies["schedules"] != 12 {
		t.Errorf("schedules tally = %d", s1.Tallies["schedules"])
	}
	// S^1_{1,n} (asynchrony) holds for every schedule: P = Q = {p} for any
	// process that appears makes every window trivially satisfied.
	if got := s1.Tallies[RelationKey(1, 1)]; got != 12 {
		t.Errorf("S^1_1 tally = %d, want 12", got)
	}
	// Monotonicity (Observation 3): membership in S^i_{j,n} implies
	// membership in S^i'_{j,n} for i' ≥ i within i' ≤ j, so tallies cannot
	// increase as j-i shrinks... check the simple containment S^1_3 ⊇ S^1_2.
	if s1.Tallies[RelationKey(1, 3)] < s1.Tallies[RelationKey(1, 2)] {
		t.Errorf("containment violated: S^1_3=%d < S^1_2=%d",
			s1.Tallies[RelationKey(1, 3)], s1.Tallies[RelationKey(1, 2)])
	}
	if s1.Verdicts["random"] != 6 || s1.Verdicts["starver"] != 6 {
		t.Errorf("generator split = %v", s1.Verdicts)
	}
}

func TestRelationsCampaignValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunRelationsCampaign(context.Background(), RelationsConfig{N: 9, Schedules: 1}, 1, nil); err == nil {
		t.Error("n = 9 accepted")
	}
	if _, err := RunRelationsCampaign(context.Background(), RelationsConfig{N: 3, Schedules: 1, Generator: "nope"}, 1, nil); err == nil {
		t.Error("unknown generator accepted")
	}
	for _, cfg := range []RelationsConfig{
		{N: 3, Schedules: 1, Bound: -2},
		{N: 3, Schedules: 1, Steps: -5},
		{N: 3, Schedules: -1},
	} {
		if _, err := RunRelationsCampaign(context.Background(), cfg, 1, nil); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}
