package campaign

import (
	"context"
	"time"
)

// Campaign telemetry: periodic progress heartbeats from the engine's fold
// loop, plus a final snapshot on the report. The knob travels by context so
// every existing campaign adapter (experiments, explore, theorem matrices)
// gains heartbeats without a signature change.
//
// Determinism contract: heartbeats are emitted at deterministic positions —
// after every Every-th job folded, in job-index order, from the single fold
// goroutine — and their counting fields (jobs, completed, ok, verdicts,
// steps) are bit-identical at any worker count, exactly like the Summary
// they are prefixes of. Only the wall-clock-derived fields (Elapsed, the
// rates, ETA) vary run to run; they are telemetry, not results.

// Heartbeat is one progress snapshot of a running campaign.
type Heartbeat struct {
	// Seq numbers the heartbeats of a campaign from 1; the final snapshot on
	// the Report reuses the last periodic Seq (or 0 if none fired).
	Seq int `json:"seq"`
	// Jobs is the campaign size; Completed + Skipped + Quarantined jobs have
	// been folded.
	Jobs        int `json:"jobs"`
	Completed   int `json:"completed"`
	Skipped     int `json:"skipped,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	Ok          int `json:"ok"`
	Failed      int `json:"failed"`
	// StepsSum is the sum of Outcome.Steps over completed jobs so far.
	StepsSum int64 `json:"steps_sum"`
	// Verdicts is a point-in-time copy of the verdict tallies.
	Verdicts map[string]int `json:"verdicts,omitempty"`

	// Elapsed, the rates, and ETA are wall-clock telemetry (ETA is the
	// remaining-job estimate at the current JobsPerSec; 0 when unknowable).
	Elapsed     time.Duration `json:"elapsed_ns"`
	JobsPerSec  float64       `json:"jobs_per_sec"`
	StepsPerSec float64       `json:"steps_per_sec"`
	ETA         time.Duration `json:"eta_ns"`

	// Dispatch carries the coordinator's self-healing counters (leases,
	// requeues, expiries, worker deaths/respawns, checkpoint activity) on
	// coordinated runs; nil on the plain in-process path. Timing-dependent
	// telemetry, like the rates above.
	Dispatch *DispatchStats `json:"dispatch,omitempty"`
}

type heartbeatKey struct{}

type heartbeatCfg struct {
	every int
	fn    func(Heartbeat)
}

func heartbeatFrom(ctx context.Context) heartbeatCfg {
	cfg, _ := ctx.Value(heartbeatKey{}).(heartbeatCfg)
	return cfg
}

// snapshot builds a heartbeat from the aggregate's current state.
func (a *aggregate) snapshot(seq, jobs int, start time.Time) Heartbeat {
	verdicts := make(map[string]int, len(a.verdicts))
	for k, v := range a.verdicts {
		verdicts[k] = v
	}
	hb := Heartbeat{
		Seq:         seq,
		Jobs:        jobs,
		Completed:   a.completed,
		Skipped:     a.skipped,
		Quarantined: a.quarantined,
		Ok:          a.ok,
		Failed:      a.completed - a.ok,
		StepsSum:    a.stepsSum,
		Verdicts:    verdicts,
		Elapsed:     time.Since(start),
	}
	if a.dispatch != nil {
		snap := *a.dispatch
		hb.Dispatch = &snap
	}
	if secs := hb.Elapsed.Seconds(); secs > 0 {
		hb.JobsPerSec = float64(a.completed+a.skipped) / secs
		hb.StepsPerSec = float64(a.stepsSum) / secs
		if remaining := jobs - a.completed - a.skipped; remaining > 0 && hb.JobsPerSec > 0 {
			hb.ETA = time.Duration(float64(remaining) / hb.JobsPerSec * float64(time.Second))
		}
	}
	return hb
}
