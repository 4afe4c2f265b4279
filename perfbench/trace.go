package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/settimeliness/settimeliness/internal/campaign"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// noSpan is the parent of a root span and the run of a span above run level.
const noSpan int32 = -1

// span is one recorded layer call.
type span struct {
	name   uint16
	parent int32 // index of the enclosing span, noSpan for a root
	run    int32 // workload run the span belongs to, noSpan above run level
	start  int64 // ns since the recorder's epoch
	end    int64
}

// recorder keeps every span of a traced run in memory; they are folded and
// written out when the run ends. The spans live outside the Go heap: as
// heap data they would grow the live heap by tens of MiB, and the collector,
// which paces itself by the live heap, would run less often in the traced
// run than in the untraced one.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	limit   int
	names   []string
	ids     map[string]uint16
	spans   []span // capacity limit + spanSlack, never reallocated
	dropped int64  // spans not recorded because the buffer was full
}

// spanSlack is room past limit for the call in flight when limit is reached;
// the largest call, a fuzz call, records about 80,200 spans.
const spanSlack = 1 << 17

func newRecorder(limit int) (*recorder, error) {
	n := limit + spanSlack
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(span{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("span buffer: %w", err)
	}
	// span holds no pointers, so memory the collector does not scan is fine.
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), n)[:0]
	return &recorder{epoch: time.Now(), limit: limit, ids: map[string]uint16{}, spans: spans}, nil
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// push appends s unless the buffer is full and returns its id, or noSpan.
// The caller holds r.mu.
func (r *recorder) push(s span) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return noSpan
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, run int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.push(span{name: r.intern(name), parent: parent, run: run, start: t, end: -1})
}

// end closes span id.
func (r *recorder) end(id int32) {
	t := r.now()
	if id == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// add records a span whose time was summed inside another layer's call (a
// schedule source consumed block by block during a run). It is placed at
// the start of its parent, with the summed duration.
func (r *recorder) add(name string, parent, run int32, dur int64) {
	if parent == noSpan {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent].start
	r.push(span{name: r.intern(name), parent: parent, run: run, start: start, end: start + dur})
}

// reparent moves span id under parent: a pool builds its element inside a
// job, but only the job that received the element knows its own span.
func (r *recorder) reparent(id, parent int32) {
	if id == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[id].parent = parent
	r.mu.Unlock()
}

func (r *recorder) full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans) >= r.limit
}

func (r *recorder) intern(name string) uint16 {
	id, ok := r.ids[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.ids[name] = id
	}
	return id
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int64
	total time.Duration
	self  time.Duration // total minus the time child spans cover
}

// folded is the self-time fold of a recorder over one window.
type folded struct {
	byName       map[string]*spanStat
	wall         time.Duration // the traced window
	unattributed time.Duration // window time no root span covers
}

func (f folded) stat(name string) spanStat {
	if s := f.byName[name]; s != nil {
		return *s
	}
	return spanStat{}
}

// fold computes every span's self time, its duration minus the union of its
// children's intervals, and sums it by name. Root spans inside [from, to]
// define what the window attributes; the rest of the window is unattributed.
func (r *recorder) fold(from, to int64) folded {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.spans)
	// Children in compressed rows: the children of p are
	// kids[first[p+1]:first[p+2]], with row 0 holding the roots.
	first := make([]int32, n+2)
	for _, s := range r.spans {
		first[s.parent+2]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, n)
	fill := append([]int32(nil), first...)
	for i, s := range r.spans {
		kids[fill[s.parent+1]] = int32(i)
		fill[s.parent+1]++
	}
	childrenOf := func(p int32) []int32 { return kids[first[p+1]:first[p+2]] }

	out := folded{byName: map[string]*spanStat{}, wall: time.Duration(to - from)}
	for i, s := range r.spans {
		end := max(s.end, s.start)
		covered := cover(r.spans, childrenOf(int32(i)), s.start, end)
		st := out.byName[r.names[s.name]]
		if st == nil {
			st = &spanStat{}
			out.byName[r.names[s.name]] = st
		}
		st.count++
		st.total += time.Duration(end - s.start)
		st.self += time.Duration(end - s.start - covered)
	}
	out.unattributed = out.wall - time.Duration(cover(r.spans, childrenOf(noSpan), from, to))
	return out
}

// cover returns how much of [lo, hi] the union of the given spans covers.
func cover(spans []span, ids []int32, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		s, e := max(spans[id].start, lo), min(spans[id].end, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// dump writes every span as one JSON line, gzip-compressed, after a header
// line naming the run.
func (r *recorder) dump(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gz, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(gz)
	r.mu.Lock()
	fmt.Fprintln(bw, header)
	for i, s := range r.spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"run\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.parent, s.run, r.names[s.name], s.start, s.end)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return f.Close()
}

// counters are the work counts of a traced run, gathered at the same layer
// boundaries as the spans so that ratios are measured where the work happens.
type counters struct {
	runs, statRuns              int64 // runs; runs that reported sim.Stats
	steps, reads, writes, noops int64
	sends, recvs, registers     int64
	genSteps                    int64            // steps drawn from schedule generators
	batchSteps                  int64            // steps on the batch loop
	batchSpans                  map[string]int64 // batch-loop span name -> its steps
	directedSteps               int64
	retired, reclaimed          int64 // snapshot arena segments
	maxParked                   int
	netRuns, sent, delivered    int64
	inFlight                    int64
	monitorSteps                int64
	campaignCalls               int64
	foldWait                    time.Duration
	folds                       int64
	// Results of the difference runs, and what each one compared.
	advNsPerStep, msgnetNsPerStep, linkmonNsPerDelivery float64
	diffNotes                                           []string
}

// tracer wraps the layer calls of one traced run.
type tracer struct {
	rec     *recorder
	workers int
	nextRun atomic.Int32

	mu  sync.Mutex
	acc counters
}

func newTracer(limit, workers int) (*tracer, error) {
	rec, err := newRecorder(limit)
	if err != nil {
		return nil, err
	}
	return &tracer{rec: rec, workers: workers, acc: counters{batchSpans: map[string]int64{}}}, nil
}

// run allocates the id shared by every span of one workload run.
func (t *tracer) run() int32 { return t.nextRun.Add(1) - 1 }

// ranOn records one run's counters: runner counters from sim.Stats, the
// steps its schedule source produced, and the batch-loop span it ran under
// ("" for runs that did not use the batch loop).
func (t *tracer) ranOn(batchSpan string, st sim.Stats, genSteps int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.acc
	c.runs++
	c.statRuns++
	c.steps += st.Steps
	c.reads += st.Reads
	c.writes += st.Writes
	c.noops += st.Noops
	c.sends += st.Sends
	c.recvs += st.Recvs
	c.registers += st.Registers
	c.genSteps += genSteps
	if batchSpan != "" {
		c.batchSteps += st.Steps
		c.batchSpans[batchSpan] += st.Steps
	}
}

func (t *tracer) update(fn func(c *counters)) {
	t.mu.Lock()
	fn(&t.acc)
	t.mu.Unlock()
}

// campaign runs jobs on the campaign engine inside a campaign.run span under
// parent. Each job runs in a campaign.job span, whose id body receives, and
// the wait from a job's end to its in-order fold is summed.
func (t *tracer) campaign(ctx context.Context, parent int32, cfg campaign.Config, names []string,
	body func(ctx context.Context, job int, seed int64, span int32) (campaign.Outcome, error)) (*campaign.Report, error) {
	runSpan := t.rec.begin("campaign.run", parent, noSpan)
	ends := make([]int64, len(names))
	jobs := make([]campaign.Job, len(names))
	for k := range jobs {
		jobs[k] = campaign.Job{Name: names[k], Run: func(ctx context.Context, seed int64) (campaign.Outcome, error) {
			js := t.rec.begin("campaign.job", runSpan, noSpan)
			out, err := body(ctx, k, seed, js)
			t.rec.end(js)
			ends[k] = t.rec.now()
			return out, err
		}}
	}
	user := cfg.OnResult
	cfg.Workers = t.workers
	cfg.OnResult = func(o campaign.Outcome) {
		wait := time.Duration(t.rec.now() - ends[o.Job])
		t.update(func(c *counters) { c.foldWait += wait; c.folds++ })
		if user != nil {
			user(o)
		}
	}
	rep, err := campaign.Run(ctx, cfg, jobs)
	t.rec.end(runSpan)
	t.update(func(c *counters) { c.campaignCalls++ })
	return rep, err
}

// timedSource sums the time a schedule source spends filling blocks inside
// the batch loop, which consumes it lazily through NextBlock.
type timedSource struct {
	sched.Source
	rec   *recorder
	spent int64
	steps int64
}

func (s *timedSource) NextBlock(dst []procset.ID) {
	t0 := s.rec.now()
	sched.FillBlock(s.Source, dst)
	s.spent += s.rec.now() - t0
	s.steps += int64(len(dst))
}

// spanLimit bounds the spans kept in memory (32 bytes each); the traced loop
// stops early once it is reached.
const spanLimit = 1 << 20

// traceRun measures the library entry points untraced for a reference
// rate, then runs the traced replica of the same calls, the workload's
// difference runs and the correctness gate, and prints the fold. Both rates
// are per reference second (see calib.go); span times are wall times.
func traceRun(ctx context.Context, o options, w workload, out io.Writer) (result, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	ul, err := timedLoop(ctx, w, total*3/10)
	if err != nil {
		return result{}, fmt.Errorf("untraced reference: %w", err)
	}
	v := &verifier{wrong: o.expectWrong}

	t, err := newTracer(spanLimit, campaignWorkers)
	if err != nil {
		return result{}, err
	}
	from := t.rec.now()
	start := time.Now()
	speed := newSpeedMeter()
	var runs, failed int64
	var samples []callSample
	calls := 0
	for i := 0; i < w.cycle() || (time.Since(start) < total*7/10 && !t.rec.full()); i++ {
		m0 := now()
		cs, err := w.traceCall(ctx, i, t)
		m := now()
		if err != nil {
			return result{}, fmt.Errorf("traced call %d: %w", i, err)
		}
		c := t.rec.begin("bench.calibrate", noSpan, noSpan)
		samples = append(samples, m0.until(m, cs))
		speed.sample()
		t.rec.end(c)
		if i < len(ul.digests) {
			v.equal(fmt.Sprintf("traced call %d output equals the untraced call's", i), cs.digest, ul.digests[i])
		}
		runs += cs.runs
		failed += cs.failed
		calls++
	}
	to := t.rec.now()

	if err := w.probe(ctx, t, v); err != nil {
		return result{}, fmt.Errorf("difference runs: %w", err)
	}
	if err := w.gate(ctx, v, campaignWorkers); err != nil {
		return result{}, fmt.Errorf("gate: %w", err)
	}
	v.report(out)

	f := t.rec.fold(from, to)
	printFold(out, f, calls, runs)
	for _, note := range t.acc.diffNotes {
		fmt.Fprintf(out, "difference run: %s\n", note)
	}
	untracedRate := ul.runsPerSecond()
	speed.scale(samples, speedBlock(w.cycle()))
	var elapsed float64
	for _, c := range samples {
		elapsed += c.elapsed().Seconds()
	}
	tracedRate := float64(runs) / elapsed
	fmt.Fprintf(out, "tracing overhead: traced %.6g runs/s, untraced %.6g runs/s, traced/untraced = %.4f\n",
		tracedRate, untracedRate, tracedRate/untracedRate)
	if o.outDir != "" {
		path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl.gz", o.workload, o.seed))
		header := fmt.Sprintf("{\"workload\":%q,\"seed\":%d,\"spans\":%d,\"window_start_ns\":%d,\"window_end_ns\":%d,\"env\":%s}",
			o.workload, o.seed, len(t.rec.spans), from, to, envStamp(o))
		if err := t.rec.dump(path, header); err != nil {
			return result{}, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(out, "span dump: %s (%d spans, %d dropped)\n", path, len(t.rec.spans), t.rec.dropped)
	}

	layers := layerMetrics(f, &t.acc, calls, ul, t.workers)
	layers = append(layers,
		namedMetric{"trace.unattributed_frac", f.unattributed.Seconds() / f.wall.Seconds(), "ratio"},
		namedMetric{"trace.runs_per_s_traced", tracedRate, "runs/s"},
		namedMetric{"trace.runs_per_s_untraced", untracedRate, "runs/s"},
	)
	for _, m := range layers {
		fmt.Fprintf(out, "layer %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	attempted := ul.runs + runs + int64(v.checks)
	failed += ul.failed + int64(len(v.failures))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: toMetrics(layers)}, nil
}

// printFold prints per-span-name totals and self times, largest self first,
// and the unattributed remainder of the traced window.
func printFold(out io.Writer, f folded, calls int, runs int64) {
	names := make([]string, 0, len(f.byName))
	for name := range f.byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return f.byName[names[i]].self > f.byName[names[j]].self })
	pct := func(d time.Duration) float64 { return 100 * d.Seconds() / f.wall.Seconds() }
	fmt.Fprintf(out, "trace: %d calls, %d runs in a %.3f s window\n", calls, runs, f.wall.Seconds())
	fmt.Fprintf(out, "trace %-28s %10s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, name := range names {
		s := f.byName[name]
		fmt.Fprintf(out, "trace %-28s %10d %12.3f %12.3f %7.2f%%\n", name, s.count, ms(s.total), ms(s.self), pct(s.self))
	}
	fmt.Fprintf(out, "trace %-28s %10s %12s %12.3f %7.2f%%\n", "unattributed", "", "", ms(f.unattributed), pct(f.unattributed))
}

// layerMetrics derives the per-layer metrics from the fold and counters. A
// metric whose layer the workload does not reach is 0.
func layerMetrics(f folded, c *counters, calls int, ul loopStats, workers int) []namedMetric {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	meanNs := func(name string) float64 {
		s := f.stat(name)
		return div(float64(s.total), float64(s.count))
	}
	selfPerStep := func(name string, steps int64) float64 { return div(float64(f.stat(name).self), float64(steps)) }
	job, run, build := f.stat("campaign.job"), f.stat("campaign.run"), f.stat("explore.build")
	var batchSelf time.Duration
	for name := range c.batchSpans {
		batchSelf += f.stat(name).self
	}
	perTarget := func(name string) float64 { return selfPerStep(name, c.batchSpans[name]) }
	perRun := func(x int64) float64 { return div(float64(x), float64(c.statRuns)) }
	workerTime := run.total.Seconds() * float64(workers)
	return []namedMetric{
		{"campaign.jobs", div(float64(job.count), float64(c.campaignCalls)), "jobs/call"},
		{"campaign.job_busy_s", div(job.total.Seconds(), float64(job.count)), "s"},
		{"campaign.fold_wait_ms", div(ms(c.foldWait), float64(c.folds)), "ms"},
		{"campaign.idle_frac", div(workerTime-job.total.Seconds(), workerTime), "ratio"},
		{"explore.builds", div(float64(build.count), float64(calls)), "builds/call"},
		{"explore.build_us", meanNs("explore.build") / 1e3, "us"},
		{"explore.runs_per_build", div(float64(c.runs), float64(build.count)), "runs/build"},
		{"sched.gen_ns_per_step", selfPerStep("sched.gen", c.genSteps), "ns"},
		{"sched.insystem_us_per_schedule", meanNs("sched.insystem") / 1e3, "us"},
		{"sched.maxqgap_ms", meanNs("sched.maxqgap") / 1e6, "ms"},
		{"sim.reset_ns", meanNs("sim.reset"), "ns"},
		{"sim.batch_ns_per_step", div(float64(batchSelf), float64(c.batchSteps)), "ns"},
		{"sim.directed_ns_per_step", selfPerStep("sim.directed", c.directedSteps), "ns"},
		{"sim.steps_per_run", perRun(c.steps), "count"},
		{"sim.reads_per_run", perRun(c.reads), "count"},
		{"sim.writes_per_run", perRun(c.writes), "count"},
		{"sim.noops_per_run", perRun(c.noops), "count"},
		{"sim.sends_per_run", perRun(c.sends), "count"},
		{"sim.recvs_per_run", perRun(c.recvs), "count"},
		{"sim.registers", perRun(c.registers), "count"},
		{"commitadopt.run_ns_per_step", perTarget("commitadopt.run"), "ns"},
		{"commitadopt.chain_run_ns_per_step", perTarget("commitadopt.chain_run"), "ns"},
		{"consensus.run_ns_per_step", perTarget("consensus.run"), "ns"},
		{"kset.run_ns_per_step", perTarget("kset.run"), "ns"},
		{"bg.run_ns_per_step", perTarget("bg.run"), "ns"},
		{"snapshot.recycled_frac", div(float64(c.reclaimed), float64(c.retired)), "ratio"},
		{"adversary.ns_per_step", c.advNsPerStep, "ns"},
		{"adversary.max_parked", float64(c.maxParked), "count"},
		{"msgnet.sent", div(float64(c.sent), float64(c.netRuns)), "count"},
		{"msgnet.delivered_frac", div(float64(c.delivered), float64(c.sent)), "ratio"},
		{"msgnet.in_flight_end", div(float64(c.inFlight), float64(c.netRuns)), "count"},
		{"msgnet.ns_per_step", c.msgnetNsPerStep, "ns"},
		{"obs.linkmon_ns_per_delivery", c.linkmonNsPerDelivery, "ns"},
		{"obs.monitor_ns_per_step", selfPerStep("obs.monitor", c.monitorSteps), "ns"},
		{"obs.graph_us", meanNs("obs.graph") / 1e3, "us"},
		{"check.verify_us", meanNs("check.verify") / 1e3, "us"},
		{"runtime.gc_cpu_frac", div(ul.res.gcCPU, ul.res.totalCPU), "ratio"},
		{"runtime.gc_cycles", div(float64(ul.res.gcCycles)*1000, float64(ul.runs)), "1/krun"},
		{"runtime.alloc_bytes_per_step", div(float64(ul.res.allocBytes), float64(ul.steps)), "B"},
	}
}
