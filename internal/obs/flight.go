package obs

import (
	"context"
	"strings"

	"github.com/settimeliness/settimeliness/internal/sim"
)

// The flight-recorder knob travels by context so campaign adapters need no
// signature changes: a CLI (or test) enables recording with WithFlight, and
// the campaign sweep driver (campaign.RunSweep) reads FlightK when it builds
// the rigs of any campaign whose rigs run a simulator.
// The recorder itself lives in internal/sim (a fixed ring of the last K
// steps, one branch per step while attached); this file only carries the
// enablement signal and formats dumps.

type flightKey struct{}

// WithFlight returns a context requesting per-runner flight recording with a
// ring of k steps. k ≤ 0 returns ctx unchanged (recording stays off).
//
// This is the low-level primitive; campaign code should set Flight on a
// campaign.Options value and apply it with campaign.WithOptions, which
// applies this knob alongside the campaign-side ones. (It carries no formal
// deprecation marker only because campaign.WithOptions itself calls it.)
func WithFlight(ctx context.Context, k int) context.Context {
	if k <= 0 {
		return ctx
	}
	return context.WithValue(ctx, flightKey{}, k)
}

// FlightK returns the requested flight-recorder ring size, or 0 when the
// context does not request recording.
func FlightK(ctx context.Context) int {
	k, _ := ctx.Value(flightKey{}).(int)
	return k
}

// FlightDump formats the runner's attached flight recorder — the last K
// executed steps, oldest first, with register names resolved — as a string
// for attachment to a failure report. It returns "" when no recorder is
// attached or nothing was recorded.
func FlightDump(r *sim.Runner) string {
	fr := r.FlightRecorder()
	if fr == nil || fr.Len() == 0 {
		return ""
	}
	var b strings.Builder
	fr.Dump(&b, r)
	return b.String()
}
