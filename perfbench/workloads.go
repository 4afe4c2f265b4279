package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/settimeliness/settimeliness/internal/campaign"
)

// callStats is what one call did: its runs (the workload's unit of work),
// the schedule steps they simulated or analysed, how many runs failed their
// correctness check, and a digest of the call's output. The digest of a
// traced call must equal the untraced call's, which shows that the traced
// replica does the same work.
type callStats struct {
	runs, steps, failed int64
	digest              string
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// cycle is the number of consecutive calls that cover every input class
	// once; the timed loop stops only at a cycle boundary.
	cycle() int
	// call makes call i of the closed loop through the library's campaign
	// entry point, with the given campaign worker count.
	call(ctx context.Context, i, workers int) (callStats, error)
	// gate re-checks outputs outside the timed region.
	gate(ctx context.Context, v *verifier, workers int) error
	// traceCall makes call i again, rebuilt from the layers' public
	// functions with a span around each layer call.
	traceCall(ctx context.Context, i int, t *tracer) (callStats, error)
	// probe runs the workload's difference runs after the traced loop.
	probe(ctx context.Context, t *tracer, v *verifier) error
}

type spec struct {
	why   string
	setup func(seed int64) (workload, error)
}

var specs = map[string]spec{
	"fuzz": {
		why:   "explore.FuzzPooledCampaign over five protocols: many short runs, so per-run fixed costs and job dispatch show",
		setup: newFuzz,
	},
	"matrix": {
		why:   "experiments.MatrixSweep over the Theorem 27 grid: long adversarial runs on the directed loop, few uneven cells",
		setup: newMatrix,
	},
	"netconv": {
		why:   "explore.NetConvCampaign over graded link matrices: the message plane and the online link monitor",
		setup: newNetConv,
	},
	"timeliness": {
		why:   "relations campaigns and the online timeliness monitor: Definition 1 analysis that the other workloads skip",
		setup: newTimeliness,
	},
}

// callSeed derives call i's input seed from the workload seed. It is kept
// non-negative and below 2^62, so seeds derived from it by addition cannot
// overflow.
func callSeed(seed int64, i int) int64 {
	return campaign.SeedFor(seed, i) & (1<<62 - 1)
}

// otherWorkers is the worker count a determinism check compares against.
func otherWorkers(workers int) int {
	if workers == 1 {
		return 2
	}
	return 1
}

// talliesDigest renders campaign tallies in key order.
func talliesDigest(t map[string]int) string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, t[k])
	}
	return b.String()
}
