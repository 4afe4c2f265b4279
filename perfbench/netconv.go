package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/explore"
	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// The netconv workload: heartbeat-detector convergence over every named
// link matrix, one NetConvCampaign call at a time with the CLI's defaults
// for the samples per matrix, steps, Δ, GST and the probe bound.
const (
	netN     = 4
	netRuns  = 32 // samples per matrix per call
	netSteps = 20_000
	netDelta = 2
)

// netGateMatrix is the matrix whose sample the gate re-extracts offline.
const netGateMatrix = msgnet.MatrixMixed

type netConvWorkload struct {
	seed     int64
	matrices []string
	// first is call 0's result at the timed worker count.
	first *campaign.Report
}

func newNetConv(seed int64) (workload, error) {
	w := &netConvWorkload{seed: seed, matrices: msgnet.MatrixNames()}
	for _, m := range w.matrices {
		if _, _, err := msgnet.BuildMatrix(m, netN, netDelta, netSteps/4); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *netConvWorkload) cycle() int { return 1 }

func (w *netConvWorkload) config(i, workers int) explore.NetConvConfig {
	return explore.NetConvConfig{N: netN, Delta: netDelta, Runs: netRuns, Steps: netSteps, Seed: callSeed(w.seed, i), Workers: workers}
}

// withDefaults fills the fields NetConvCampaign defaults.
func withDefaults(cfg explore.NetConvConfig) explore.NetConvConfig {
	if cfg.GST == 0 {
		cfg.GST = cfg.Steps / 4
	}
	if cfg.Probe == 0 {
		cfg.Probe = cfg.Delta + 3*cfg.N*(cfg.N-1)
	}
	return cfg
}

func (w *netConvWorkload) call(ctx context.Context, i, workers int) (callStats, error) {
	rep, _, err := explore.NetConvCampaign(ctx, w.config(i, workers), nil)
	if err != nil {
		return callStats{}, err
	}
	if i == 0 {
		w.first = rep
	}
	return netStats(rep.Summary), nil
}

func netStats(s campaign.Summary) callStats {
	runs := int64(s.Tallies["runs"])
	return callStats{runs: runs, steps: runs * netSteps, failed: int64(s.Failed), digest: talliesDigest(s.Tallies)}
}

// gate repeats call 0 at the other worker count, requiring identical
// tallies, and re-runs one sample with a delivery log: the online link
// grades must equal obs.ExtractLinkGrades over the log and the sample the
// campaign reported.
func (w *netConvWorkload) gate(ctx context.Context, v *verifier, workers int) error {
	other := otherWorkers(workers)
	rep, _, err := explore.NetConvCampaign(ctx, w.config(0, other), nil)
	if err != nil {
		return err
	}
	v.equal(fmt.Sprintf("netconv: tallies at %d workers", other), rep.Summary.Tallies, w.first.Summary.Tallies)

	cfg := withDefaults(w.config(0, workers))
	job := 0
	for k, m := range w.matrices {
		if m == netGateMatrix {
			job = k
		}
	}
	var log []obs.Delivery
	rig, err := newNetRig(netGateMatrix, cfg, true, func(from, to procset.ID, sent, delivered int) {
		log = append(log, obs.Delivery{From: from, To: to, SentStep: sent, Delivered: delivered})
	})
	if err != nil {
		return err
	}
	defer rig.runner.Close()
	if _, err := rig.sample(campaign.SeedFor(campaign.SeedFor(cfg.Seed, job), 0), cfg.Steps, nil); err != nil {
		return err
	}
	online := rig.mon.Snapshot()
	batch, err := obs.ExtractLinkGrades(cfg.N, cfg.Probe, log)
	if err != nil {
		return err
	}
	v.equal("netconv: online link grades equal ExtractLinkGrades over the delivery log", online, batch)
	v.equal("netconv: re-extracted sample equals the campaign's", "sample["+netGateMatrix+"]:"+obs.FormatLinkGrades(batch)+"=1",
		sampleTally(w.first.Summary.Tallies, netGateMatrix))
	return nil
}

// sampleTally returns the campaign's sample tally for matrix as key=count.
func sampleTally(tallies map[string]int, matrix string) string {
	for k, c := range tallies {
		if strings.HasPrefix(k, "sample["+matrix+"]:") {
			return fmt.Sprintf("%s=%d", k, c)
		}
	}
	return ""
}

// netRig mirrors NetConvCampaign's rig: the heartbeat detector on a graded
// network whose deliveries an online link monitor observes (when monitored).
type netRig struct {
	n      int
	net    *msgnet.Net
	hb     *msgnet.Heartbeat
	runner *sim.Runner
	mon    *obs.LinkMonitor
	built  int32
}

func newNetRig(matrix string, cfg explore.NetConvConfig, monitored bool, extra func(from, to procset.ID, sent, delivered int)) (*netRig, error) {
	def, links, err := msgnet.BuildMatrix(matrix, cfg.N, cfg.Delta, cfg.GST)
	if err != nil {
		return nil, err
	}
	mon, err := obs.NewLinkMonitor(cfg.N, cfg.Probe)
	if err != nil {
		return nil, err
	}
	var onDeliver func(from, to procset.ID, sent, delivered int)
	switch {
	case monitored && extra != nil:
		onDeliver = func(from, to procset.ID, sent, delivered int) {
			mon.Observe(from, to, sent, delivered)
			extra(from, to, sent, delivered)
		}
	case monitored:
		onDeliver = mon.Observe
	}
	net, err := msgnet.New(msgnet.Config{N: cfg.N, Default: def, Links: links, Wild: cfg.Wild, OnDeliver: onDeliver})
	if err != nil {
		return nil, err
	}
	hb, err := msgnet.NewHeartbeat(msgnet.HeartbeatConfig{N: cfg.N})
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(sim.Config{N: cfg.N, Machine: hb.Machine, Network: net})
	if err != nil {
		return nil, err
	}
	return &netRig{n: cfg.N, net: net, hb: hb, runner: runner, mon: mon, built: noSpan}, nil
}

// netSpans are the spans of one traced sample; nil runs the sample untraced.
type netSpans struct {
	t       *tracer
	job, id int32
}

// sample runs one (schedule, delays) sample from seed: reseed and reset,
// then a random schedule of steps steps on the batch loop.
func (rig *netRig) sample(seed int64, steps int, sp *netSpans) (*timedSource, error) {
	var rs int32
	if sp != nil {
		rs = sp.t.rec.begin("sim.reset", sp.job, sp.id)
	}
	rig.net.Reseed(seed)
	rig.mon.Reset()
	err := rig.runner.Reset()
	if sp != nil {
		sp.t.rec.end(rs)
	}
	if err != nil {
		return nil, err
	}
	src, err := sched.Random(rig.n, seed, nil)
	if err != nil {
		return nil, err
	}
	if sp == nil {
		rig.runner.Run(src, steps, 0, nil)
		return nil, nil
	}
	ts := &timedSource{Source: src, rec: sp.t.rec}
	x := sp.t.rec.begin("sim.batch", sp.job, sp.id)
	rig.runner.Run(ts, steps, 0, nil)
	sp.t.rec.end(x)
	sp.t.rec.add("sched.gen", x, sp.id, ts.spent)
	return ts, nil
}

// gradeShape renders link statuses without their GST estimates, as the
// campaign's tally keys do.
func gradeShape(statuses []obs.LinkStatus) string {
	var b strings.Builder
	for i, s := range statuses {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d→%d:%s", int(s.From), int(s.To), s.Grade)
	}
	return b.String()
}

// traceCall is NetConvCampaign rebuilt from its layers: a validation rig per
// matrix, then one campaign job per matrix on pooled rigs, each running its
// samples through msgnet.Net.Reseed+LinkMonitor.Reset+Runner.Reset,
// Runner.Run, Heartbeat.Agree and LinkMonitor.Snapshot.
func (w *netConvWorkload) traceCall(ctx context.Context, i int, t *tracer) (callStats, error) {
	cfg := withDefaults(w.config(i, t.workers))
	call := t.rec.begin("call", noSpan, noSpan)
	defer t.rec.end(call)
	for _, m := range w.matrices {
		s := t.rec.begin("explore.build", call, noSpan)
		rig, err := newNetRig(m, cfg, true, nil)
		if err != nil {
			return callStats{}, err
		}
		rig.runner.Close()
		t.rec.end(s)
	}
	pools := make([]*campaign.Pool[*netRig], len(w.matrices))
	for k, m := range w.matrices {
		pools[k] = campaign.NewPool(func() (*netRig, error) {
			s := t.rec.begin("explore.build", noSpan, noSpan)
			rig, err := newNetRig(m, cfg, true, nil)
			t.rec.end(s)
			if rig != nil {
				rig.built = s
			}
			return rig, err
		})
	}
	defer func() {
		for _, p := range pools {
			p.Drain(func(rig *netRig) { rig.runner.Close() })
		}
	}()
	names := make([]string, len(w.matrices))
	for k, m := range w.matrices {
		names[k] = "netconv[" + m + "]"
	}
	rep, err := t.campaign(ctx, call, campaign.Config{Seed: cfg.Seed}, names,
		func(ctx context.Context, k int, jobSeed int64, job int32) (campaign.Outcome, error) {
			matrix := w.matrices[k]
			rig, err := pools[k].Get()
			if err != nil {
				return campaign.Outcome{}, err
			}
			defer pools[k].Put(rig)
			if rig.built != noSpan {
				t.rec.reparent(rig.built, job)
				rig.built = noSpan
			}
			tallies := map[string]int{}
			converged, executed := 0, 0
			for r := 0; r < cfg.Runs; r++ {
				if ctx.Err() != nil {
					break
				}
				id := t.run()
				ts, err := rig.sample(campaign.SeedFor(jobSeed, r), cfg.Steps, &netSpans{t, job, id})
				if err != nil {
					return campaign.Outcome{}, err
				}
				ns := rig.net.Stats()
				t.ranOn("sim.batch", rig.runner.Stats(), ts.steps)
				t.update(func(c *counters) {
					c.netRuns++
					c.sent += ns.Sent
					c.delivered += ns.Delivered
					c.inFlight += ns.InFlight
				})
				c := t.rec.begin("check.verify", job, id)
				leader, ok := rig.hb.Agree(procset.FullSet(rig.n))
				t.rec.end(c)
				o := t.rec.begin("obs.snapshot", job, id)
				statuses := rig.mon.Snapshot()
				shape, full := gradeShape(statuses), obs.FormatLinkGrades(statuses)
				t.rec.end(o)
				executed++
				if ok {
					converged++
					tallies["cell["+matrix+"]:converged"]++
					tallies[fmt.Sprintf("leader[%s]:p%d", matrix, leader)]++
				} else {
					tallies["cell["+matrix+"]:split"]++
				}
				tallies["grades["+matrix+"]:"+shape]++
				if r == 0 {
					tallies["sample["+matrix+"]:"+full] = 1
				}
			}
			tallies["runs"] = executed
			verdict := "converged"
			if converged < executed {
				verdict = fmt.Sprintf("converged %d/%d", converged, executed)
			}
			return campaign.Outcome{Verdict: verdict, Ok: true, Steps: executed, Tallies: tallies}, nil
		})
	if err != nil {
		return callStats{}, err
	}
	return netStats(rep.Summary), nil
}

const netProbeReps = 5

// probe runs the message-plane difference runs on call 0's first samples:
// each sample on a rig without OnDeliver gives msgnet's ns/step, and the
// same sample with the link monitor attached, minus that, gives the
// monitor's cost per delivery. The two sides alternate and each keeps its
// fastest repetition, the one least disturbed by other tenants. Both rigs
// must execute identically.
func (w *netConvWorkload) probe(_ context.Context, t *tracer, v *verifier) error {
	cfg := withDefaults(w.config(0, t.workers))
	var with, without time.Duration
	var steps, deliveries int64
	for k, m := range w.matrices {
		mon, err := newNetRig(m, cfg, true, nil)
		if err != nil {
			return err
		}
		bare, err := newNetRig(m, cfg, false, nil)
		if err != nil {
			return err
		}
		seed := campaign.SeedFor(campaign.SeedFor(cfg.Seed, k), 0)
		var a, b []float64
		for rep := 0; rep < netProbeReps; rep++ {
			for _, side := range []struct {
				rig *netRig
				out *[]float64
			}{{bare, &b}, {mon, &a}} {
				t0 := time.Now()
				if _, err := side.rig.sample(seed, cfg.Steps, nil); err != nil {
					return err
				}
				*side.out = append(*side.out, float64(time.Since(t0)))
			}
		}
		v.equal(fmt.Sprintf("msgnet probe %s: monitored and bare runs deliver alike", m), mon.net.Stats(), bare.net.Stats())
		deliveries += mon.net.Stats().Delivered
		steps += int64(cfg.Steps)
		with += time.Duration(slices.Min(a))
		without += time.Duration(slices.Min(b))
		mon.runner.Close()
		bare.runner.Close()
	}
	t.update(func(c *counters) {
		c.msgnetNsPerStep = float64(without) / float64(steps)
		c.linkmonNsPerDelivery = float64(with-without) / float64(deliveries)
		c.diffNotes = append(c.diffNotes,
			fmt.Sprintf("msgnet.ns_per_step = run without OnDeliver / steps, fastest of %d over one sample per matrix: %.2f ns/step", netProbeReps, c.msgnetNsPerStep),
			fmt.Sprintf("obs.linkmon_ns_per_delivery = (run with LinkMonitor − run without) / deliveries: (%.3f − %.3f ms) / %d", ms(with), ms(without), deliveries))
	})
	return nil
}
