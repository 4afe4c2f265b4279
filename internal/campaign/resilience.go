package campaign

import (
	"context"
	"fmt"
	"time"

	"github.com/settimeliness/settimeliness/internal/faultinject"
)

// Resilience makes campaign.Run's coordinator fault tolerant:
// checkpointed, lease-based dispatch that survives worker crashes, hangs,
// and coordinator death. Like the heartbeat and flight-recorder knobs, it
// travels by context (Options.Resilience) so every campaign adapter gains
// checkpoint/resume, self-healing dispatch, and fault injection without a
// signature change. Without it the same coordinator runs in-process workers
// with no journal, no lease, no retries and no dispatch stats.
type Resilience struct {
	// Checkpoint is the journal path; "" disables checkpointing (the
	// coordinator still leases, retries, and quarantines).
	Checkpoint string
	// Resume loads an existing journal at Checkpoint and skips its completed
	// jobs; a missing file starts fresh. The journal header must match Spec.
	Resume bool
	// Spec identifies the campaign in the journal header and lets worker
	// processes validate they rebuilt the same job list.
	Spec Spec

	// Procs > 0 dispatches jobs to that many child worker processes speaking
	// the JSONL protocol over stdin/stdout, spawned from WorkerArgv; 0 uses
	// in-process goroutine workers (Config.Workers wide).
	Procs int
	// WorkerArgv is the full argv (argv[0] = binary path) of a worker
	// process; required when Procs > 0.
	WorkerArgv []string

	// Lease is the per-attempt deadline before a job is considered hung and
	// requeued; 0 means 1 minute.
	Lease time.Duration
	// Retries is how many times a job is re-leased after a failed attempt
	// before quarantine; 0 means 3, negative means none.
	Retries int
	// BackoffBase/BackoffMax shape the capped exponential backoff (with
	// deterministic seeded jitter) between attempts; 0 means 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Chaos injects deterministic faults (see internal/faultinject); nil
	// injects nothing.
	Chaos *faultinject.Injector
	// Clock is the coordinator's time source; nil means wall clock.
	Clock faultinject.Clock

	// Log receives coordinator lifecycle notices (worker deaths, respawns,
	// lease expiries, quarantines); nil discards them.
	Log func(format string, args ...any)
}

// Spec names a campaign as data: the registered kind (a stm-campaign
// subcommand), the canonical JSON of its parameters, and the master seed.
// It is the identity the checkpoint journal and the worker handshake are
// validated against.
type Spec struct {
	Kind   string `json:"kind"`
	Params string `json:"params,omitempty"`
	Seed   int64  `json:"seed"`
}

func (s Spec) header(jobs int) JournalHeader {
	return JournalHeader{Version: journalVersion, Kind: s.Kind, Params: s.Params, Seed: s.Seed, Jobs: jobs}
}

type resilienceKey struct{}

func resilienceFrom(ctx context.Context) *Resilience {
	r, _ := ctx.Value(resilienceKey{}).(*Resilience)
	return r
}

func (r *Resilience) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

func (r *Resilience) lease() time.Duration {
	if r.Lease > 0 {
		return r.Lease
	}
	return time.Minute
}

func (r *Resilience) retries() int {
	switch {
	case r.Retries > 0:
		return r.Retries
	case r.Retries < 0:
		return 0
	}
	return 3
}

func (r *Resilience) backoff(attempt int, jobSeed int64) time.Duration {
	base, max := r.BackoffBase, r.BackoffMax
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	// Deterministic jitter in [0.5, 1.5): derived from the job seed and the
	// attempt with the same mixing the per-job seeds use, so a replayed fault
	// schedule replays its timing decisions too.
	j := uint64(SeedFor(jobSeed, attempt))
	frac := float64(j>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + frac))
}

func (r *Resilience) clock() faultinject.Clock {
	if r.Clock != nil {
		return r.Clock
	}
	return faultinject.Wall()
}

// InterruptedError reports that a coordinated campaign stopped before
// completion — SIGINT/SIGTERM, a fault-injected coordinator crash — with its
// progress checkpointed. The caller can print the exact resume invocation
// and exit with the dedicated status code.
type InterruptedError struct {
	// Checkpoint is the journal path holding the completed outcomes.
	Checkpoint string
	// Done and Jobs count resolved versus total jobs at the interrupt; after
	// an injected crash, Done counts the outcomes a resume recovers.
	Done, Jobs int
	// Injected marks a fault-injection crash (chaos testing) rather than a
	// real signal.
	Injected bool
	// Cause, when non-nil, is what stopped the run.
	Cause error
}

func (e *InterruptedError) Error() string {
	how := "interrupted"
	if e.Injected {
		how = "crashed (fault injection)"
	}
	msg := fmt.Sprintf("campaign %s with %d/%d jobs checkpointed to %s", how, e.Done, e.Jobs, e.Checkpoint)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *InterruptedError) Unwrap() error { return e.Cause }

// QuarantineRecord describes a poison job: one that exhausted its retry
// budget and was isolated so the rest of the campaign could complete.
type QuarantineRecord struct {
	Job      int    `json:"job"`
	Name     string `json:"name,omitempty"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err,omitempty"`
}

// DispatchStats counts the coordinator's self-healing activity. Like the
// wall-clock telemetry fields, these depend on timing and fault schedules;
// they are observability, not part of the deterministic aggregate.
type DispatchStats struct {
	// Leases granted (initial dispatches plus retries).
	Leases int64 `json:"leases"`
	// Expired counts leases whose deadline passed before a result arrived.
	Expired int64 `json:"expired,omitempty"`
	// Requeues counts jobs put back on the queue after a lost attempt.
	Requeues int64 `json:"requeues,omitempty"`
	// WorkerDeaths counts worker crashes/exits observed; Respawns counts the
	// replacements started.
	WorkerDeaths int64 `json:"worker_deaths,omitempty"`
	Respawns     int64 `json:"respawns,omitempty"`
	// Quarantined counts poison jobs isolated after exhausting retries.
	Quarantined int64 `json:"quarantined,omitempty"`
	// Checkpointed counts outcomes appended to the journal this run; Resumed
	// counts outcomes recovered from it at startup.
	Checkpointed int64 `json:"checkpointed,omitempty"`
	Resumed      int64 `json:"resumed,omitempty"`
}
