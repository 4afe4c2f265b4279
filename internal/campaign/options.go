// The knob surface: every context-travelling campaign option — coordinator
// resilience, progress heartbeats, and the flight-recorder request honored
// by pooled-runner campaigns — is a field of one Options struct, applied by
// a single WithOptions call.

package campaign

import (
	"context"

	"github.com/settimeliness/settimeliness/internal/obs"
)

// Options bundles the context-travelling campaign knobs. The zero value is
// a no-op: every field leaves the context untouched when unset.
type Options struct {
	// Resilience routes Run through the fault-tolerant coordinator
	// (checkpointed, lease-based dispatch); nil keeps the plain in-process
	// pool path.
	Resilience *Resilience
	// Heartbeat, when non-nil and HeartbeatEvery ≥ 1, receives a progress
	// snapshot after every HeartbeatEvery folded jobs, in job-index order,
	// on the fold goroutine.
	HeartbeatEvery int
	Heartbeat      func(Heartbeat)
	// Flight > 0 requests per-runner flight recording with a ring of Flight
	// steps; campaigns with pooled runners read it via obs.FlightK.
	Flight int
}

// WithOptions applies every configured knob of o to ctx in one call. A nil
// Resilience keeps the plain pool path; a heartbeat needs HeartbeatEvery ≥
// 1 and a non-nil Heartbeat, which runs on the fold goroutine, so it may
// write to shared sinks without locking but must return quickly.
func WithOptions(ctx context.Context, o Options) context.Context {
	if o.Resilience != nil {
		ctx = context.WithValue(ctx, resilienceKey{}, o.Resilience)
	}
	if o.HeartbeatEvery >= 1 && o.Heartbeat != nil {
		ctx = context.WithValue(ctx, heartbeatKey{}, heartbeatCfg{every: o.HeartbeatEvery, fn: o.Heartbeat})
	}
	return obs.WithFlight(ctx, o.Flight)
}
