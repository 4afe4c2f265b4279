package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/settimeliness/settimeliness/internal/faultinject"
)

// TestMain doubles the test binary as a campaign worker process: when the
// coordinator spawns it with the worker env set, it serves workerTestJobs
// over stdin/stdout instead of running the test suite. This is exactly the
// arrangement cmd/stm-campaign uses, exercised at package level.
func TestMain(m *testing.M) {
	if os.Getenv(EnvWorker) == "1" {
		ctx := WithWorkerServe(context.Background(), os.Stdin, os.Stdout)
		if _, err := Run(ctx, Config{}, workerTestJobs()); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerTestJobs is the fixed job list parent and child rebuild
// independently; outcomes are pure functions of the (parent-sent) seed.
func workerTestJobs() []Job {
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("wj%d", i), Run: func(ctx context.Context, seed int64) (Outcome, error) {
			h := uint64(seed)
			for k := 0; k < 1000; k++ {
				h = h*6364136223846793005 + 1442695040888963407
			}
			verdict := "even"
			if h%2 == 1 {
				verdict = "odd"
			}
			return Outcome{
				Verdict: verdict,
				Ok:      true,
				Steps:   int(h % 97),
				Tallies: map[string]int{"runs": 1},
				Detail:  map[string]any{"h": h % 1000},
			}, nil
		}}
	}
	return jobs
}

// runTrace captures everything a campaign's deterministic surface emits: the
// OnResult stream (as the exact JSONL bytes a sink would write) and the
// final summary encoding.
type runTrace struct {
	stream  strings.Builder
	summary string
}

func (tr *runTrace) onResult(o Outcome) {
	b, err := json.Marshal(o)
	if err != nil {
		tr.stream.WriteString("MARSHAL-ERROR: " + err.Error())
		return
	}
	tr.stream.Write(b)
	tr.stream.WriteByte('\n')
}

func (tr *runTrace) finish(t *testing.T, rep *Report) {
	t.Helper()
	b, err := json.Marshal(rep.Summary)
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	tr.summary = string(b)
}

// plainBaseline runs the jobs without Resilience (no journal, lease or
// retry) and returns its trace, the reference every resilient run must
// reproduce.
func plainBaseline(t *testing.T, jobs []Job, seed int64) *runTrace {
	t.Helper()
	tr := &runTrace{}
	rep, err := Run(context.Background(), Config{Workers: 4, Seed: seed, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	tr.finish(t, rep)
	return tr
}

func assertTraceEqual(t *testing.T, want, got *runTrace, label string) {
	t.Helper()
	if want.summary != got.summary {
		t.Errorf("%s: summary drifted\n  want %s\n  got  %s", label, want.summary, got.summary)
	}
	if want.stream.String() != got.stream.String() {
		t.Errorf("%s: OnResult JSONL stream not bit-identical", label)
	}
}

// TestCoordinatedMatchesPlain: a &Resilience{} run (leases, retries and
// dispatch stats on) streams and folds exactly like a run without
// Resilience, at one worker and at eight.
func TestCoordinatedMatchesPlain(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 7)
	for _, workers := range []int{1, 8} {
		tr := &runTrace{}
		ctx := WithOptions(context.Background(), Options{Resilience: &Resilience{}})
		rep, err := Run(ctx, Config{Workers: workers, Seed: 7, OnResult: tr.onResult}, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tr.finish(t, rep)
		assertTraceEqual(t, want, tr, fmt.Sprintf("workers=%d", workers))
		if rep.Telemetry.Dispatch == nil || rep.Telemetry.Dispatch.Leases != int64(len(jobs)) {
			t.Errorf("workers=%d: dispatch stats = %+v, want %d leases", workers, rep.Telemetry.Dispatch, len(jobs))
		}
	}
}

func TestCoordinatedCheckpointColdRun(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 7)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	tr := &runTrace{}
	res := &Resilience{Checkpoint: path, Spec: Spec{Kind: "wtest", Seed: 7}}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: 4, Seed: 7, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "checkpointed cold run")
	_, done, err := OpenJournal(path, Spec{Kind: "wtest", Seed: 7}.header(len(jobs)))
	if err != nil || len(done) != len(jobs) {
		t.Fatalf("journal after clean run: %d outcomes, %v", len(done), err)
	}
}

// TestCrashResumeDeterministic is the core S3 property: kill the coordinator
// at randomized journal positions — including mid-write (torn tail) and with
// a corrupted tail — then resume, and the resumed aggregate and JSONL stream
// must be bit-identical to an uninterrupted run, at 1 and 8 workers.
func TestCrashResumeDeterministic(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 7)
	rng := rand.New(rand.NewSource(20260808))
	for _, workers := range []int{1, 8} {
		for _, tail := range []string{"crash", "trunc", "corrupt"} {
			k := 1 + rng.Intn(len(jobs)-2) // crash after k appends, 1 ≤ k < jobs-1
			label := fmt.Sprintf("workers=%d/%s@%d", workers, tail, k)
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				path := filepath.Join(t.TempDir(), "ck.jsonl")
				plan, err := faultinject.Parse(fmt.Sprintf("%s@%d", tail, k))
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{Kind: "wtest", Seed: 7}
				res := &Resilience{Checkpoint: path, Spec: spec, Chaos: faultinject.New(plan, 1)}
				_, err = Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: workers, Seed: 7}, jobs)
				var ie *InterruptedError
				if !errors.As(err, &ie) || !ie.Injected {
					t.Fatalf("chaos run: err = %v, want injected InterruptedError", err)
				}
				if ie.Checkpoint != path {
					t.Errorf("InterruptedError.Checkpoint = %q", ie.Checkpoint)
				}

				tr := &runTrace{}
				resume := &Resilience{Checkpoint: path, Resume: true, Spec: spec}
				rep, err := Run(WithOptions(context.Background(), Options{Resilience: resume}), Config{Workers: workers, Seed: 7, OnResult: tr.onResult}, jobs)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				tr.finish(t, rep)
				assertTraceEqual(t, want, tr, label)
				if got := rep.Telemetry.Dispatch.Resumed; got == 0 || got != int64(ie.Done) {
					t.Errorf("resume recovered %d jobs from the journal, the crash reported %d", got, ie.Done)
				}
			})
		}
	}
}

// TestResumeAfterEveryPrefix leaves no crash point unchecked at one worker:
// for every k, crash after k appends, resume, and compare.
func TestResumeAfterEveryPrefix(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()[:8]
	want := plainBaseline(t, jobs, 3)
	spec := Spec{Kind: "wtest8", Seed: 3}
	for k := 1; k <= len(jobs); k++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("ck%d.jsonl", k))
		plan, err := faultinject.Parse(fmt.Sprintf("crash@%d", k))
		if err != nil {
			t.Fatal(err)
		}
		res := &Resilience{Checkpoint: path, Spec: spec, Chaos: faultinject.New(plan, 1)}
		_, err = Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: 1, Seed: 3}, jobs)
		var ie *InterruptedError
		if !errors.As(err, &ie) {
			t.Fatalf("crash@%d: err = %v", k, err)
		}
		// crash@k leaves a clean tail: the journal holds all k appends, the
		// crashing one included, and a resume recovers them all.
		if ie.Done != k {
			t.Errorf("crash@%d: Done = %d, want %d", k, ie.Done, k)
		}
		tr := &runTrace{}
		rep, err := Run(WithOptions(context.Background(), Options{Resilience: &Resilience{Checkpoint: path, Resume: true, Spec: spec}}),
			Config{Workers: 1, Seed: 3, OnResult: tr.onResult}, jobs)
		if err != nil {
			t.Fatalf("resume after crash@%d: %v", k, err)
		}
		tr.finish(t, rep)
		assertTraceEqual(t, want, tr, fmt.Sprintf("crash@%d", k))
		if got := rep.Telemetry.Dispatch.Resumed; got != int64(ie.Done) {
			t.Errorf("crash@%d: resume recovered %d jobs, the crash reported %d", k, got, ie.Done)
		}
	}
}

func TestResumeMissingJournalStartsFresh(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()[:6]
	want := plainBaseline(t, jobs, 11)
	path := filepath.Join(t.TempDir(), "never-written.jsonl")
	tr := &runTrace{}
	res := &Resilience{Checkpoint: path, Resume: true, Spec: Spec{Kind: "wtest6", Seed: 11}}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: 2, Seed: 11, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "fresh-despite-resume")
}

func TestWorkerKillsHeal(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 7)
	plan, err := faultinject.Parse("kill@3")
	if err != nil {
		t.Fatal(err)
	}
	tr := &runTrace{}
	res := &Resilience{Chaos: faultinject.New(plan, 1)}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: 4, Seed: 7, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run under kill@3: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "kill@3")
	d := rep.Telemetry.Dispatch
	if d.WorkerDeaths == 0 || d.Respawns == 0 || d.Requeues == 0 {
		t.Errorf("kill@3 dispatch stats %+v: expected deaths, respawns and requeues", d)
	}
}

func TestStalledJobLeaseExpiresAndHeals(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()[:6]
	want := plainBaseline(t, jobs, 5)
	plan, err := faultinject.Parse("stall@2~400ms")
	if err != nil {
		t.Fatal(err)
	}
	tr := &runTrace{}
	res := &Resilience{
		Chaos:       faultinject.New(plan, 1),
		Lease:       60 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: 3, Seed: 5, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run under stall: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "stall-heal")
	d := rep.Telemetry.Dispatch
	if d.Expired == 0 || d.Requeues == 0 {
		t.Errorf("stall dispatch stats %+v: expected an expiry and a requeue", d)
	}
}

func TestPoisonJobQuarantined(t *testing.T) {
	t.Parallel()
	// Job 3 hangs forever on every attempt; the lease machinery must retire
	// it to quarantine while the other jobs complete normally.
	jobs := workerTestJobs()[:10]
	jobs[3] = Job{Name: "poison", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		<-ctx.Done()
		return Outcome{}, nil
	}}
	var quarantinedSeen bool
	tr := &runTrace{}
	res := &Resilience{
		Lease:       30 * time.Millisecond,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		Log: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "quarantined") {
				quarantinedSeen = true
			}
		},
	}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Workers: 8, Seed: 9, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Summary.Quarantined != 1 || rep.Summary.Completed != 9 || rep.Summary.Ok != 9 {
		t.Fatalf("summary = %+v, want 9 ok + 1 quarantined", rep.Summary)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined records = %v", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Job != 3 || q.Name != "poison" || q.Attempts != 3 || !strings.Contains(q.LastErr, "lease expired") {
		t.Errorf("quarantine record = %+v", q)
	}
	if !quarantinedSeen {
		t.Error("quarantine was not logged")
	}
	// The stream must contain the 9 healthy outcomes only — a quarantined job
	// yields no fabricated result.
	if got := strings.Count(tr.stream.String(), "\n"); got != 9 {
		t.Errorf("stream has %d lines, want 9", got)
	}
	if rep.Telemetry.Dispatch.Quarantined != 1 {
		t.Errorf("dispatch stats %+v", rep.Telemetry.Dispatch)
	}
}

func TestCoordinatedJobErrorAborts(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	jobs := workerTestJobs()[:12]
	jobs[7] = Job{Name: "bad", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		return Outcome{}, boom
	}}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: &Resilience{}}), Config{Workers: 4, Seed: 2}, jobs)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "job 7") {
		t.Fatalf("err = %v", err)
	}
	if got := rep.Summary.Completed + rep.Summary.Skipped; got != 12 {
		t.Errorf("accounted %d jobs, want 12 (%+v)", got, rep.Summary)
	}
}

func TestCoordinatedStopOnFail(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()[:12]
	jobs[2] = Job{Name: "fail", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		return Outcome{Verdict: "violation", Ok: false, Detail: "witness"}, nil
	}}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: &Resilience{}}), Config{Workers: 2, Seed: 2, StopOnFail: true}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Job != 2 {
		t.Fatalf("failures = %+v", rep.Failures)
	}
	if rep.Summary.Completed+rep.Summary.Skipped != 12 {
		t.Errorf("summary accounts %d jobs (%+v)", rep.Summary.Completed+rep.Summary.Skipped, rep.Summary)
	}
}

func TestCoordinatedInterruptCheckpointsAndResumes(t *testing.T) {
	t.Parallel()
	// Cancel the parent context partway through a slow campaign; the
	// coordinator must return InterruptedError with a loadable journal, and
	// a resume must complete to the plain baseline.
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("slow%d", i), Run: func(ctx context.Context, seed int64) (Outcome, error) {
			time.Sleep(10 * time.Millisecond)
			return Outcome{Verdict: "ok", Ok: true, Steps: int(seed % 13)}, nil
		}}
	}
	want := plainBaseline(t, jobs, 21)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	spec := Spec{Kind: "slow", Seed: 21}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := &Resilience{Checkpoint: path, Spec: spec}
	var firstDone bool
	cfg := Config{Workers: 2, Seed: 21, OnResult: func(o Outcome) {
		if !firstDone {
			firstDone = true
			cancel() // interrupt as soon as the first outcome folds
		}
	}}
	_, err := Run(WithOptions(ctx, Options{Resilience: res}), cfg, jobs)
	var ie *InterruptedError
	if !errors.As(err, &ie) || ie.Injected {
		t.Fatalf("err = %v, want real (non-injected) InterruptedError", err)
	}
	if ie.Done < 1 || ie.Done >= len(jobs) {
		t.Fatalf("InterruptedError.Done = %d", ie.Done)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause not propagated: %v", err)
	}

	tr := &runTrace{}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: &Resilience{Checkpoint: path, Resume: true, Spec: spec}}),
		Config{Workers: 2, Seed: 21, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "interrupt+resume")
}

func TestProcWorkersMatchPlain(t *testing.T) {
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 7)
	for _, procs := range []int{1, 3} {
		tr := &runTrace{}
		res := &Resilience{Procs: procs, WorkerArgv: []string{exe}}
		rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Seed: 7, OnResult: tr.onResult}, jobs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		tr.finish(t, rep)
		assertTraceEqual(t, want, tr, fmt.Sprintf("procs=%d", procs))
		if rep.Workers != procs {
			t.Errorf("procs=%d: Report.Workers = %d", procs, rep.Workers)
		}
	}
}

func TestProcWorkersSurviveChaosKills(t *testing.T) {
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 7)
	plan, err := faultinject.Parse("kill@4")
	if err != nil {
		t.Fatal(err)
	}
	tr := &runTrace{}
	res := &Resilience{
		Procs:       2,
		WorkerArgv:  []string{exe},
		Chaos:       faultinject.New(plan, 1),
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Seed: 7, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run under kill@4 with process workers: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "proc-kill@4")
	d := rep.Telemetry.Dispatch
	if d.WorkerDeaths == 0 || d.Respawns == 0 {
		t.Errorf("dispatch stats %+v: expected child deaths and respawns", d)
	}
}

// TestProcWorkersStalledLeaseHeals pins the proc-side lease machinery: a
// child process that hangs on a job must be killed at lease expiry AND have
// the job requeued (a hung child cannot requeue itself — the regression here
// was an expiry that killed the worker but never rescheduled the job,
// wedging the campaign).
func TestProcWorkersStalledLeaseHeals(t *testing.T) {
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The full list: the worker-mode TestMain serves exactly workerTestJobs().
	jobs := workerTestJobs()
	want := plainBaseline(t, jobs, 4)
	plan, err := faultinject.Parse("stall@2~10s")
	if err != nil {
		t.Fatal(err)
	}
	tr := &runTrace{}
	res := &Resilience{
		Procs:       2,
		WorkerArgv:  []string{exe},
		Chaos:       faultinject.New(plan, 1),
		Lease:       100 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Seed: 4, OnResult: tr.onResult}, jobs)
	if err != nil {
		t.Fatalf("Run with a stalled process worker: %v", err)
	}
	tr.finish(t, rep)
	assertTraceEqual(t, want, tr, "proc-stall-lease")
	d := rep.Telemetry.Dispatch
	// The killed child's death notice races campaign completion, so only the
	// expiry and the requeue (whose absence wedged the campaign) are asserted.
	if d.Expired == 0 || d.Requeues == 0 {
		t.Errorf("dispatch stats %+v: expected an expiry and a requeue", d)
	}
}

func TestProcWorkersBadBinaryAborts(t *testing.T) {
	t.Parallel()
	res := &Resilience{Procs: 1, WorkerArgv: []string{filepath.Join(t.TempDir(), "no-such-binary")}}
	_, err := Run(WithOptions(context.Background(), Options{Resilience: res}), Config{Seed: 1}, workerTestJobs()[:4])
	if err == nil {
		t.Fatal("spawning a nonexistent worker binary succeeded")
	}
}

func TestCoordinatedPanicIsolated(t *testing.T) {
	t.Parallel()
	jobs := workerTestJobs()[:8]
	jobs[5] = Job{Name: "p", Run: func(ctx context.Context, seed int64) (Outcome, error) {
		panic("kaboom-coordinated")
	}}
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: &Resilience{}}), Config{Workers: 4, Seed: 3}, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Summary.Completed != 8 || rep.Summary.Ok != 7 || rep.Summary.Verdicts["panic"] != 1 {
		t.Fatalf("summary = %+v", rep.Summary)
	}
}

// A negative Resilience.Procs is an error before any worker starts, not a
// panic in the process spawn.
func TestNegativeProcsRejected(t *testing.T) {
	t.Parallel()
	rep, err := Run(WithOptions(context.Background(), Options{Resilience: &Resilience{Procs: -1}}), Config{Seed: 1}, workerTestJobs()[:4])
	if err == nil || rep != nil {
		t.Fatalf("Procs = -1: report %v, error %v; want no report and an error", rep, err)
	}
}
