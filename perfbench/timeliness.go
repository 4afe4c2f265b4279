package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/experiments"
	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// The timeliness workload alternates two kinds of call over n = 4, 5, 6:
// a RunRelationsCampaign over a mixed random/starver population, and an
// online obs.Monitor fed one long mixed-regime schedule in blocks, then
// queried for its timeliness graph.
const (
	tlBound    = 4
	tlRelSteps = 2000
	tlMonBlock = 256
	tlPerN     = 2   // monitored schedules per n, built at set-up
	tlSegment  = 512 // steps per regime before the mixed schedule switches
)

// Per-n sizes, chosen so that every call of a cycle takes about as long:
// the InSystem sweep and the monitor's fold both grow steeply with n.
var (
	tlRelSchedules = map[int]int{4: 64, 5: 16, 6: 4}
	tlMonSteps     = map[int]int{4: 128_000, 5: 40_000, 6: 10_000}
)

var tlSizes = []int{4, 5, 6}

type timelinessWorkload struct {
	seed int64
	// pool holds the monitored schedules per n; graphs the graph each
	// produced on its first monitored call.
	pool   map[int][]sched.Schedule
	graphs map[int][]string
	views  map[int][][]obs.SystemStatus
}

func newTimeliness(seed int64) (workload, error) {
	w := &timelinessWorkload{seed: seed, pool: map[int][]sched.Schedule{},
		graphs: map[int][]string{}, views: map[int][][]obs.SystemStatus{}}
	for _, n := range tlSizes {
		for k := 0; k < tlPerN; k++ {
			s, err := mixedSchedule(n, callSeed(seed, -1-(n*tlPerN+k)), tlMonSteps[n])
			if err != nil {
				return nil, err
			}
			w.pool[n] = append(w.pool[n], s)
		}
		w.graphs[n] = make([]string, tlPerN)
		w.views[n] = make([][]obs.SystemStatus, tlPerN)
	}
	return w, nil
}

// mixedSchedule switches between a random regime and a rotating starver
// every tlSegment steps.
func mixedSchedule(n int, seed int64, steps int) (sched.Schedule, error) {
	random, err := sched.Random(n, seed, nil)
	if err != nil {
		return nil, err
	}
	starver, err := sched.RotatingStarver(n, int(uint64(seed)%uint64(n-1))+1, 1)
	if err != nil {
		return nil, err
	}
	src, err := sched.Interleave(random, starver, tlSegment, tlSegment)
	if err != nil {
		return nil, err
	}
	return sched.Take(src, steps), nil
}

func (w *timelinessWorkload) cycle() int { return 2 * len(tlSizes) }

// inputs returns call i's kind (relations or monitor) and n, and for a
// monitor call the index of its schedule in the pool.
func (w *timelinessWorkload) inputs(i int) (monitor bool, n, k int) {
	c := i % w.cycle()
	return c%2 == 1, tlSizes[c/2], (i / w.cycle()) % tlPerN
}

func (w *timelinessWorkload) relConfig(n, workers int) experiments.RelationsConfig {
	return experiments.RelationsConfig{N: n, Bound: tlBound, Steps: tlRelSteps, Schedules: tlRelSchedules[n], Generator: "mixed", Workers: workers}
}

func (w *timelinessWorkload) call(ctx context.Context, i, workers int) (callStats, error) {
	monitor, n, k := w.inputs(i)
	if !monitor {
		rep, err := experiments.RunRelationsCampaign(ctx, w.relConfig(n, workers), callSeed(w.seed, i), nil)
		if err != nil {
			return callStats{}, err
		}
		return relStats(rep.Summary), nil
	}
	s := w.pool[n][k]
	m, err := obs.NewMonitor(obs.MonitorConfig{N: n})
	if err != nil {
		return callStats{}, err
	}
	for lo := 0; lo < len(s); lo += tlMonBlock {
		m.ObserveBlock(s[lo:min(lo+tlMonBlock, len(s))])
	}
	graph := m.Graph(tlBound)
	cs := callStats{runs: 1, steps: int64(len(s)), digest: graphDigest(graph)}
	switch w.graphs[n][k] {
	case "":
		w.graphs[n][k], w.views[n][k] = cs.digest, graph
	case cs.digest:
	default:
		cs.failed = 1 // the same schedule must give the same graph
	}
	return cs, nil
}

func relStats(s campaign.Summary) callStats {
	runs := int64(s.Tallies["schedules"])
	return callStats{runs: runs, steps: runs * tlRelSteps, failed: int64(s.Failed), digest: talliesDigest(s.Tallies)}
}

func graphDigest(graph []obs.SystemStatus) string {
	var b strings.Builder
	for _, st := range graph {
		fmt.Fprintf(&b, "S^%d_%d:%v:%s/%s:%d;", st.I, st.J, st.Held, st.BestP, st.BestQ, st.MinBound)
	}
	return b.String()
}

// gate checks the monitor against the batch extractor on every monitored
// schedule: each class's InSystem and Best must equal sched.InSystem and
// sched.BestPair over the whole schedule.
func (w *timelinessWorkload) gate(_ context.Context, v *verifier, _ int) error {
	for _, n := range tlSizes {
		for k, graph := range w.views[n] {
			s := w.pool[n][k]
			for _, st := range graph {
				what := fmt.Sprintf("timeliness n=%d schedule %d S^%d_%d", n, k, st.I, st.J)
				v.equal(what+": InSystem", st.Held, sched.InSystem(s, n, st.I, st.J, tlBound))
				v.equal(what+": Best", st.Best, sched.BestPair(s, n, st.I, st.J))
			}
		}
	}
	return nil
}

// traceCall rebuilds both kinds of call from their layers. A relations call
// is one campaign job per schedule: generation (sched.Random or
// sched.RotatingStarver, then Take) and the InSystem sweep over the family.
// A monitor call is NewMonitor plus ObserveBlock over the schedule, then
// Graph.
func (w *timelinessWorkload) traceCall(ctx context.Context, i int, t *tracer) (callStats, error) {
	monitor, n, k := w.inputs(i)
	call := t.rec.begin("call", noSpan, noSpan)
	defer t.rec.end(call)
	if monitor {
		s := w.pool[n][k]
		id := t.run()
		o := t.rec.begin("obs.monitor", call, id)
		m, err := obs.NewMonitor(obs.MonitorConfig{N: n})
		if err != nil {
			return callStats{}, err
		}
		for lo := 0; lo < len(s); lo += tlMonBlock {
			m.ObserveBlock(s[lo:min(lo+tlMonBlock, len(s))])
		}
		t.rec.end(o)
		g := t.rec.begin("obs.graph", call, id)
		graph := m.Graph(tlBound)
		t.rec.end(g)
		t.update(func(c *counters) { c.runs++; c.monitorSteps += int64(len(s)) })
		return callStats{runs: 1, steps: int64(len(s)), digest: graphDigest(graph)}, nil
	}

	cfg := w.relConfig(n, t.workers)
	names := make([]string, cfg.Schedules)
	for idx := range names {
		names[idx] = fmt.Sprintf("schedule%d", idx)
	}
	rep, err := t.campaign(ctx, call, campaign.Config{Seed: callSeed(w.seed, i)}, names,
		func(_ context.Context, idx int, jobSeed int64, job int32) (campaign.Outcome, error) {
			id := t.run()
			g := t.rec.begin("sched.gen", job, id)
			kind := "random"
			var (
				src sched.Source
				err error
			)
			if idx%2 == 0 {
				src, err = sched.Random(cfg.N, jobSeed, nil)
			} else {
				kind = "starver"
				src, err = sched.RotatingStarver(cfg.N, int(uint64(jobSeed)%uint64(cfg.N-1))+1, 1)
			}
			if err != nil {
				return campaign.Outcome{}, err
			}
			s := sched.Take(src, cfg.Steps)
			t.rec.end(g)
			x := t.rec.begin("sched.insystem", job, id)
			tallies := map[string]int{"schedules": 1}
			held := 0
			for a := 1; a <= cfg.N; a++ {
				for b := a; b <= cfg.N; b++ {
					if sched.InSystem(s, cfg.N, a, b, cfg.Bound) {
						tallies[experiments.RelationKey(a, b)]++
						held++
					}
				}
			}
			t.rec.end(x)
			t.update(func(c *counters) { c.runs++; c.genSteps += int64(len(s)) })
			return campaign.Outcome{Verdict: kind, Ok: true, Steps: held, Tallies: tallies}, nil
		})
	if err != nil {
		return callStats{}, err
	}
	return relStats(rep.Summary), nil
}

// probe times sched.MaxQGap, the batch gap fold, on every pooled schedule
// for the best pair of each class the monitor found, and requires the
// monitor's online gap to equal it.
func (w *timelinessWorkload) probe(_ context.Context, t *tracer, v *verifier) error {
	var calls int64
	var spent time.Duration
	for _, n := range tlSizes {
		for k, s := range w.pool[n] {
			m, err := obs.NewMonitor(obs.MonitorConfig{N: n})
			if err != nil {
				return err
			}
			for lo := 0; lo < len(s); lo += tlMonBlock {
				m.ObserveBlock(s[lo:min(lo+tlMonBlock, len(s))])
			}
			for _, st := range m.Graph(tlBound) {
				p, q := st.Best.P, st.Best.Q
				g := t.rec.begin("sched.maxqgap", noSpan, noSpan)
				t0 := time.Now()
				gap := sched.MaxQGap(s, p, q)
				spent += time.Since(t0)
				t.rec.end(g)
				calls++
				if st.I == 1 && st.J == n {
					v.equal(fmt.Sprintf("timeliness probe n=%d schedule %d: online MaxQGap(%v,%v)", n, k, p, q), m.MaxQGap(p, q), gap)
				}
			}
		}
	}
	t.update(func(c *counters) {
		c.diffNotes = append(c.diffNotes, fmt.Sprintf(
			"sched.maxqgap_ms = sched.MaxQGap over each pooled schedule for every class's best pair: %d calls, %.3f ms",
			calls, ms(spent)))
	})
	return nil
}
