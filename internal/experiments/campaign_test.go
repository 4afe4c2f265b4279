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
	cfg := RelationsConfig{N: 4, Bound: 4, Steps: 300, Schedules: 12, Generator: "mixed"}
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
	// Observation 3: shrinking Q and enlarging P keep timeliness, so
	// S^i_{j,n} ⊆ S^i_{j−1,n} and S^i_{j,n} ⊆ S^{i+1}_{j,n}, and no tally
	// rises along either step of the staircase. On this population some
	// step falls, so the check is not vacuous.
	tally := func(i, j int) int { return s1.Tallies[RelationKey(i, j)] }
	strict := false
	for i := 1; i <= cfg.N; i++ {
		for j := i + 1; j <= cfg.N; j++ {
			for _, wider := range [][2]int{{i, j - 1}, {i + 1, j}} {
				switch w := tally(wider[0], wider[1]); {
				case tally(i, j) > w:
					t.Errorf("containment violated: S^%d_%d = %d > S^%d_%d = %d", i, j, tally(i, j), wider[0], wider[1], w)
				case tally(i, j) < w:
					strict = true
				}
			}
		}
	}
	if !strict {
		t.Errorf("every step of the staircase is equal, the containment check is vacuous: %v", s1.Tallies)
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
