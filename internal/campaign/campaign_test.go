package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// spinJob burns a little CPU so completion order genuinely races under
// multiple workers, then reports a deterministic outcome derived from the
// job seed.
func spinJob(i int) Job {
	return Job{
		Name: fmt.Sprintf("job%d", i),
		Run: func(ctx context.Context, seed int64) (Outcome, error) {
			h := uint64(seed)
			for k := 0; k < 2000*(i%7+1); k++ {
				h = h*6364136223846793005 + 1442695040888963407
			}
			steps := int(h%1000) + 1
			verdict := "even"
			if steps%2 == 1 {
				verdict = "odd"
			}
			return Outcome{
				Verdict: verdict,
				Ok:      true,
				Steps:   steps,
				Tallies: map[string]int{"runs": 1, verdict: 1},
			}, nil
		},
	}
}

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = spinJob(i)
	}
	return jobs
}

// TestDeterministicAcrossWorkers is the engine's core contract: the same
// campaign seed yields a bit-identical summary and JSONL stream at one
// worker and at eight.
func TestDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	run := func(workers int) (Summary, string) {
		var buf bytes.Buffer
		sink, sinkErr := JSONLSink(&buf)
		rep, err := Run(context.Background(), Config{Workers: workers, Seed: 42, OnResult: sink}, makeJobs(200))
		if err != nil {
			t.Fatal(err)
		}
		if *sinkErr != nil {
			t.Fatal(*sinkErr)
		}
		return rep.Summary, buf.String()
	}
	s1, j1 := run(1)
	s8, j8 := run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("summaries differ:\nworkers=1: %+v\nworkers=8: %+v", s1, s8)
	}
	if j1 != j8 {
		t.Error("JSONL streams differ between 1 and 8 workers")
	}
	if s1.Completed != 200 || s1.Ok != 200 || s1.Failed != 0 {
		t.Errorf("summary = %+v", s1)
	}
	if s1.Tallies["runs"] != 200 {
		t.Errorf("runs tally = %d", s1.Tallies["runs"])
	}
	if got := s1.Verdicts["even"] + s1.Verdicts["odd"]; got != 200 {
		t.Errorf("verdict tallies sum to %d", got)
	}
}

// TestSeedSensitivity: a different campaign seed must change per-job seeds
// (and hence the aggregate), and SeedFor must be stable across calls.
func TestSeedSensitivity(t *testing.T) {
	t.Parallel()
	if SeedFor(1, 0) != SeedFor(1, 0) {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(1, 0) == SeedFor(1, 1) || SeedFor(1, 0) == SeedFor(2, 0) {
		t.Error("SeedFor collisions on adjacent inputs")
	}
	rep1, err := Run(context.Background(), Config{Workers: 4, Seed: 1}, makeJobs(50))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), Config{Workers: 4, Seed: 2}, makeJobs(50))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rep1.Summary, rep2.Summary) {
		t.Error("different campaign seeds produced identical summaries")
	}
}

// TestOrderedEmission: OnResult must observe job indices 0,1,2,... even when
// many workers complete out of order.
func TestOrderedEmission(t *testing.T) {
	t.Parallel()
	var seen []int
	_, err := Run(context.Background(), Config{
		Workers:  8,
		OnResult: func(o Outcome) { seen = append(seen, o.Job) },
	}, makeJobs(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("emitted %d outcomes", len(seen))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("emission out of order at %d: got job %d", i, idx)
		}
	}
}

// TestJobErrorAbortsCampaign: without Resilience a job error aborts the
// campaign with no retry (every job's Run is called at most once), and the
// error names the smallest failing index even when a larger one failed
// first: job 9 fails at once, job 7 only after job 9 has run.
func TestJobErrorAbortsCampaign(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	jobs := makeJobs(40)
	var calls [40]atomic.Int32
	ran9 := make(chan struct{})
	jobs[9] = Job{Name: "worse", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		close(ran9)
		return Outcome{}, boom
	}}
	jobs[7] = Job{Name: "bad", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		<-ran9
		return Outcome{}, boom
	}}
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(ctx context.Context, seed int64) (Outcome, error) {
			calls[i].Add(1)
			return run(ctx, seed)
		}
	}
	rep, err := Run(context.Background(), Config{Workers: 4}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "job 7") || !strings.Contains(err.Error(), "bad") {
		t.Errorf("error lacks the smallest failing job's identity: %v", err)
	}
	if rep.Summary.Completed+rep.Summary.Skipped != 40 {
		t.Errorf("completed %d + skipped %d != 40", rep.Summary.Completed, rep.Summary.Skipped)
	}
	for i := range calls {
		if n := calls[i].Load(); n > 1 || (n == 0 && (i == 7 || i == 9)) {
			t.Errorf("job %d ran %d times", i, n)
		}
	}
	if rep.Telemetry.Dispatch != nil {
		t.Errorf("a run without Resilience reports dispatch stats %+v", rep.Telemetry.Dispatch)
	}
}

func TestPanicBecomesFailedOutcome(t *testing.T) {
	t.Parallel()
	// A panicking job is isolated: the campaign completes, the job folds as a
	// failed outcome carrying the panic message (its stack goes to stderr).
	jobs := makeJobs(10)
	jobs[4] = Job{Name: "p", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		panic("kaboom")
	}}
	rep, err := Run(context.Background(), Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Summary.Completed != 10 || rep.Summary.Ok != 9 {
		t.Fatalf("summary = %+v, want 10 completed / 9 ok", rep.Summary)
	}
	if rep.Summary.Verdicts["panic"] != 1 {
		t.Errorf("verdicts = %v, want one %q", rep.Summary.Verdicts, "panic")
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(rep.Failures))
	}
	f := rep.Failures[0]
	if f.Verdict != "panic" || f.Ok {
		t.Errorf("failure outcome = %+v", f)
	}
	pd, ok := f.Detail.(PanicDetail)
	if !ok {
		t.Fatalf("Detail = %T, want PanicDetail", f.Detail)
	}
	if !strings.Contains(pd.Message, "kaboom") {
		t.Errorf("panic message %q lacks the panic value", pd.Message)
	}
}

// TestFailuresKeepSmallestSixteen: a report retains the failing outcomes
// with the sixteen smallest job indices, in index order, however the
// workers finish them, while the summary counts every failure.
func TestFailuresKeepSmallestSixteen(t *testing.T) {
	t.Parallel()
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("fail%d", i), Run: func(ctx context.Context, seed int64) (Outcome, error) {
			// Higher indices spin less, so they tend to finish first.
			h := uint64(seed)
			for k := 0; k < 2000*(len(jobs)-i); k++ {
				h = h*6364136223846793005 + 1442695040888963407
			}
			return Outcome{Verdict: "violation", Steps: int(h%7) + 1}, nil
		}}
	}
	rep, err := Run(context.Background(), Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Summary.Completed != 20 || rep.Summary.Failed != 20 || rep.Summary.Ok != 0 {
		t.Fatalf("summary = %+v, want 20 completed / 20 failed", rep.Summary)
	}
	if len(rep.Failures) != 16 {
		t.Fatalf("failures = %d, want 16", len(rep.Failures))
	}
	for i, f := range rep.Failures {
		if f.Job != i || f.Ok {
			t.Errorf("failure %d = job %d (ok %v), want job %d", i, f.Job, f.Ok, i)
		}
	}
}

func TestStopOnFail(t *testing.T) {
	t.Parallel()
	// Non-failing jobs burn enough CPU that the instant failure at index 3
	// stops the campaign while most of the 200 jobs are still queued.
	slow := Job{Run: func(ctx context.Context, seed int64) (Outcome, error) {
		h := uint64(seed)
		for k := 0; k < 300_000; k++ {
			h = h*6364136223846793005 + 1442695040888963407
		}
		return Outcome{Ok: true, Steps: int(h % 7)}, nil
	}}
	jobs := make([]Job, 200)
	for i := range jobs {
		jobs[i] = slow
	}
	jobs[3] = Job{Name: "fail", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		return Outcome{Ok: false, Verdict: "violation", Detail: "schedule-3"}, nil
	}}
	rep, err := Run(context.Background(), Config{Workers: 4, StopOnFail: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Failed != 1 {
		t.Errorf("failed = %d", rep.Summary.Failed)
	}
	if rep.Summary.Skipped == 0 {
		t.Error("no jobs skipped after StopOnFail stopped the campaign")
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Job != 3 || rep.Failures[0].Detail != "schedule-3" {
		t.Errorf("failures = %+v", rep.Failures)
	}
}

// StopOnFail ends a campaign at its smallest failed job, whichever failure
// arrives first: job 7 fails at once and job 3 only after its neighbours,
// yet at any worker count, with and without leases, jobs 0 to 3 fold and
// stream in order, job 3 alone failed, and the rest fold as skipped.
func TestStopOnFailEndsAtSmallestFailedJob(t *testing.T) {
	t.Parallel()
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("job%d", i), Run: func(ctx context.Context, seed int64) (Outcome, error) {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return Outcome{Verdict: "violation"}, nil
			case 7:
				return Outcome{Verdict: "violation"}, nil
			}
			time.Sleep(time.Millisecond)
			return Outcome{Verdict: "ok", Ok: true, Steps: i}, nil
		}}
	}
	for _, res := range []*Resilience{nil, {}} {
		for _, workers := range []int{1, 2, 4, 8} {
			var streamed []int
			ctx := WithOptions(context.Background(), Options{Resilience: res})
			rep, err := Run(ctx, Config{Workers: workers, StopOnFail: true, OnResult: func(o Outcome) { streamed = append(streamed, o.Job) }}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			s := rep.Summary
			if s.Completed != 4 || s.Skipped != 36 || s.Failed != 1 || len(rep.Failures) != 1 || rep.Failures[0].Job != 3 || !slices.Equal(streamed, []int{0, 1, 2, 3}) {
				t.Errorf("workers %d, resilience %v: summary %+v, failures %+v, streamed %v; want jobs 0..3, job 3 failed", workers, res != nil, s, rep.Failures, streamed)
			}
		}
	}
}

func TestContextCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Config{Workers: 4}, makeJobs(50))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Completed != 0 || rep.Summary.Skipped != 50 {
		t.Errorf("summary = %+v", rep.Summary)
	}
}

func TestEmptyCampaign(t *testing.T) {
	t.Parallel()
	rep, err := Run(context.Background(), Config{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Jobs != 0 || rep.Summary.Completed != 0 {
		t.Errorf("summary = %+v", rep.Summary)
	}
}

func TestStepStatsPercentiles(t *testing.T) {
	t.Parallel()
	sample := make([]int, 100)
	for i := range sample {
		sample[i] = 100 - i // reversed: stats must sort
	}
	st := stepStats(sample)
	if st.Min != 1 || st.Max != 100 || st.P50 != 50 || st.P90 != 90 || st.P99 != 99 {
		t.Errorf("stats = %+v", st)
	}
	if st.Sum != 5050 || st.Mean != 50.5 {
		t.Errorf("sum/mean = %d/%v", st.Sum, st.Mean)
	}
}

// BenchmarkRunJobs times the executor's per-job cost on trivial jobs, 64
// and 1,024 per campaign at 2 workers, without Resilience and with
// &Resilience{}. ns/job is the wall time per job. max-backlog is the most
// outcomes the fold held back in one campaign (the peak of the folder's
// pending buffer, replayed from the order the jobs finished, which is the
// order their results reach the fold), the median over the b.N campaigns so
// that one campaign whose worker thread the OS preempted does not set it.
func BenchmarkRunJobs(b *testing.B) {
	for _, mode := range []struct {
		name string
		res  *Resilience
	}{{"plain", nil}, {"resilient", &Resilience{}}} {
		for _, n := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/jobs=%d", mode.name, n), func(b *testing.B) {
				order := make([]int, n)
				var finished atomic.Int64
				jobs := make([]Job, n)
				for i := range jobs {
					jobs[i] = Job{Run: func(context.Context, int64) (Outcome, error) {
						order[finished.Add(1)-1] = i
						return Outcome{Ok: true, Steps: 1}, nil
					}}
				}
				ctx := WithOptions(context.Background(), Options{Resilience: mode.res})
				seen, peaks := make([]bool, n), make([]int, n)
				b.ReportAllocs()
				for b.Loop() {
					finished.Store(0)
					if _, err := Run(ctx, Config{Workers: 2}, jobs); err != nil {
						b.Fatal(err)
					}
					peaks[backlog(order, seen)]++
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
				median, below := 0, 0
				for below+peaks[median] <= b.N/2 {
					below += peaks[median]
					median++
				}
				b.ReportMetric(float64(median), "max-backlog")
			})
		}
	}
}

// backlog replays a finishing order through an index-order fold and returns
// the most outcomes it ever held back; seen is a reused buffer of len(order).
func backlog(order []int, seen []bool) int {
	clear(seen)
	peak, emit := 0, 0
	for k, i := range order {
		seen[i] = true
		for emit < len(seen) && seen[emit] {
			emit++
		}
		peak = max(peak, k+1-emit)
	}
	return peak
}
