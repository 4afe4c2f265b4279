package campaign

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// telemetryJobs builds a batch of trivial deterministic jobs whose verdict
// and step count derive from the job seed.
func telemetryJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("job%d", i),
			Run: func(_ context.Context, seed int64) (Outcome, error) {
				v := "even"
				if uint64(seed)%2 == 1 {
					v = "odd"
				}
				return Outcome{
					Verdict: v,
					Ok:      true,
					Steps:   int(uint64(seed) % 1000),
					Tallies: map[string]int{"runs": 1},
				}, nil
			},
		}
	}
	return jobs
}

// Heartbeats fire at deterministic fold positions with deterministic
// counting fields, at any worker count. Without Resilience no heartbeat and
// no final snapshot carries dispatch stats, and every job runs once.
func TestHeartbeatDeterministicPositions(t *testing.T) {
	const jobs, every, seed = 10, 3, 42
	type counts struct {
		seq, completed, ok int
		stepsSum           int64
		verdicts           map[string]int
	}
	collect := func(workers int) ([]counts, *Report) {
		var beats []counts
		ctx := WithOptions(context.Background(), Options{HeartbeatEvery: every, Heartbeat: func(hb Heartbeat) {
			if hb.Dispatch != nil {
				t.Errorf("heartbeat %d carries dispatch stats %+v", hb.Seq, hb.Dispatch)
			}
			beats = append(beats, counts{hb.Seq, hb.Completed, hb.Ok, hb.StepsSum, hb.Verdicts})
		}})
		var calls atomic.Int32
		js := telemetryJobs(jobs)
		for i := range js {
			run := js[i].Run
			js[i].Run = func(ctx context.Context, seed int64) (Outcome, error) {
				calls.Add(1)
				return run(ctx, seed)
			}
		}
		rep, err := Run(ctx, Config{Workers: workers, Seed: seed}, js)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != jobs || rep.Telemetry.Dispatch != nil {
			t.Fatalf("workers=%d: %d job runs, final dispatch %+v; want %d runs and none", workers, calls.Load(), rep.Telemetry.Dispatch, jobs)
		}
		return beats, rep
	}

	beats1, rep1 := collect(1)
	beats4, rep4 := collect(4)
	if len(beats1) != jobs/every {
		t.Fatalf("got %d heartbeats, want %d", len(beats1), jobs/every)
	}
	if !reflect.DeepEqual(beats1, beats4) {
		t.Fatalf("heartbeat counting fields depend on worker count:\n1: %+v\n4: %+v", beats1, beats4)
	}
	for k, hb := range beats1 {
		if hb.seq != k+1 || hb.completed != (k+1)*every {
			t.Fatalf("heartbeat %d fired at completed=%d seq=%d", k, hb.completed, hb.seq)
		}
	}
	if !reflect.DeepEqual(rep1.Summary, rep4.Summary) {
		t.Fatal("summary depends on worker count with heartbeats enabled")
	}

	// The final telemetry snapshot covers the whole campaign and records how
	// many periodic heartbeats fired.
	if rep1.Telemetry.Completed != jobs || rep1.Telemetry.Seq != jobs/every {
		t.Fatalf("final telemetry %+v, want completed=%d seq=%d", rep1.Telemetry, jobs, jobs/every)
	}
	if rep1.Telemetry.StepsSum != rep1.Summary.Steps.Sum {
		t.Fatalf("telemetry steps sum %d != summary sum %d", rep1.Telemetry.StepsSum, rep1.Summary.Steps.Sum)
	}
}

// Heartbeats must not perturb the campaign: a run with the knob produces
// the same summary as one without it.
func TestHeartbeatDoesNotChangeSummary(t *testing.T) {
	const jobs, seed = 17, 7
	plain, err := Run(context.Background(), Config{Workers: 3, Seed: seed}, telemetryJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithOptions(context.Background(), Options{HeartbeatEvery: 2, Heartbeat: func(Heartbeat) {}})
	beating, err := Run(ctx, Config{Workers: 3, Seed: seed}, telemetryJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Summary, beating.Summary) {
		t.Fatal("heartbeats changed the summary")
	}
	// The final snapshot exists even without the knob (Seq 0: none fired).
	if plain.Telemetry.Seq != 0 || plain.Telemetry.Completed != jobs {
		t.Fatalf("knobless telemetry %+v", plain.Telemetry)
	}
}

// The verdict map handed to a heartbeat is a snapshot the receiver may keep
// or mutate without corrupting the engine's tallies.
func TestHeartbeatVerdictsAreCopies(t *testing.T) {
	ctx := WithOptions(context.Background(), Options{HeartbeatEvery: 1, Heartbeat: func(hb Heartbeat) {
		hb.Verdicts["even"] = -999
	}})
	rep, err := Run(ctx, Config{Workers: 2, Seed: 1}, telemetryJobs(6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Verdicts["even"] < 0 {
		t.Fatal("heartbeat receiver mutated the engine's verdict tallies")
	}
}

// Invalid knobs disable themselves rather than panicking mid-campaign.
func TestHeartbeatKnobValidation(t *testing.T) {
	base := context.Background()
	if WithOptions(base, Options{HeartbeatEvery: 0, Heartbeat: func(Heartbeat) {}}) != base {
		t.Fatal("every=0 installed a heartbeat")
	}
	if WithOptions(base, Options{HeartbeatEvery: 5}) != base {
		t.Fatal("nil fn installed a heartbeat")
	}
}
