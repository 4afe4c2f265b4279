package campaign

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/settimeliness/settimeliness/internal/faultinject"
)

// The coordinator is campaign.Run's one executor. Without a Resilience it
// runs the jobs on in-process workers with no journal, no lease and no
// retries; a Resilience adds lease-based dispatch over workers that may
// crash, hang, or be preempted. Each job is granted a lease with a
// deadline; a lease that expires (hung worker), or whose worker dies, is
// requeued with capped exponential backoff and deterministic jitter, and a
// job that exhausts its retry budget is quarantined so the rest of the
// campaign completes — degraded is reported, never silent. Completed
// outcomes are journaled to the checkpoint file in arrival order and folded
// in job-index order, so the aggregate (and any JSONL stream) stays
// bit-identical to an uninterrupted run: retries re-execute deterministic
// jobs to the same outcome, and resume replays the journal.
//
// Workers are either in-process goroutines (Config.Workers wide), which
// claim attempt-0 jobs off a shared cursor themselves, or child worker
// processes (Resilience.Procs wide) speaking the JSONL protocol in
// worker.go. Fault injection enters through the Resilience.Chaos injector:
// worker-side faults (kill/stall/delay) execute wherever the worker lives,
// coordinator-side faults (crash/trunc/corrupt) fire on the journal-append
// hook. All timing goes through the injectable clock.

// claiming is the job of an in-process worker's slot while it claims
// jobs itself without reporting them (no leases) or before it reports the
// next claim.
const claiming = -2

// maxConsecutiveDeaths aborts the campaign when workers keep dying without
// a single result in between — a broken worker binary or a poisoned
// environment, not something retries can heal.
const maxConsecutiveDeaths = 8

// injectedCrash is the coordinator-crash signal raised by the journal
// append hook under fault injection.
type injectedCrash struct{ fault faultinject.TailFault }

func (e injectedCrash) Error() string {
	return fmt.Sprintf("fault injection: coordinator crash (%s tail)", e.fault)
}

// coordEvent is a message from the worker on slot worker: a job's result
// (err is the job's error), an in-process worker's claim of job (-1: none
// left), or the worker's death (err is the cause, if known).
type coordEvent struct {
	worker int
	job    int
	out    Outcome
	err    error
	claim  bool
	down   bool
}

// workerState is one worker's slot: its lease and its substrate, a child
// process or the channel an in-process goroutine takes grants from.
type workerState struct {
	proc     *procWorker
	ch       chan workReq
	job      int // -1 when idle; see claiming
	attempt  int
	deadline time.Time
	// expired marks a lease whose deadline passed: the job has been routed
	// elsewhere (in-process) or the worker killed (process); the slot stays
	// taken until the late result or the death notice arrives.
	expired bool
}

type readyItem struct {
	job     int
	attempt int
	readyAt time.Time
	seq     int
}

type readyQueue []readyItem

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if !q[i].readyAt.Equal(q[j].readyAt) {
		return q[i].readyAt.Before(q[j].readyAt)
	}
	return q[i].seq < q[j].seq
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(readyItem)) }
func (q *readyQueue) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

type coordinator struct {
	// parent is the caller's context; ctx is the internal cancellable child.
	// Only parent cancellation means "interrupted" — an internal cancel is
	// an abort and must not be mistaken for a SIGINT.
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc
	cfg    Config
	res    *Resilience
	jobs   []Job
	clock  faultinject.Clock
	// lease is the per-attempt deadline; 0 (no Resilience) means none.
	lease time.Duration

	events chan coordEvent
	stop   chan struct{}

	workers []workerState
	target  int

	// cursor is the next attempt-0 job; see claim.
	cursor atomic.Int64
	retry  readyQueue // requeued attempts, by ready time
	seq    int

	done     []bool
	resolved int
	// limit is the last job to run: under StopOnFail the smallest failed
	// one so far, else the last of all. open counts the jobs up to limit
	// not yet done; the campaign ends when it reaches 0.
	limit   atomic.Int64
	open    int
	lastErr map[int]string // made at the first lost attempt

	quarantined []QuarantineRecord
	stats       DispatchStats
	f           *folder
	journal     *Journal

	stopDispatch bool
	interrupted  bool
	firstErr     error
	errIdx       int
	deaths       int // consecutive worker deaths without progress
}

// noResilience stands in for a missing Resilience: no journal, no chaos, no
// log, the wall clock.
var noResilience Resilience

// runCoordinated runs the campaign; res is nil without Resilience.
func runCoordinated(parent context.Context, cfg Config, res *Resilience, jobs []Job) (*Report, error) {
	start := time.Now()
	resilient := res != nil
	if !resilient {
		res = &noResilience
	}
	target := cfg.Workers
	switch {
	case res.Procs < 0:
		return nil, fmt.Errorf("campaign: Resilience.Procs = %d is negative", res.Procs)
	case res.Procs > 0:
		if len(res.WorkerArgv) == 0 {
			return nil, fmt.Errorf("campaign: Resilience.Procs = %d but no WorkerArgv to spawn", res.Procs)
		}
		target = res.Procs
	case target <= 0:
		target = runtime.GOMAXPROCS(0)
	}
	target = max(1, min(target, len(jobs)))

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	c := &coordinator{
		parent: parent,
		ctx:    ctx,
		cancel: cancel,
		cfg:    cfg,
		res:    res,
		jobs:   jobs,
		clock:  res.clock(),
		// Room for a few messages per worker, so that a worker seldom
		// blocks on a send while the coordinator folds.
		events: make(chan coordEvent, 4*target),
		stop:   make(chan struct{}),
		target: target,
		done:   make([]bool, len(jobs)),
		open:   len(jobs),
		errIdx: -1,
		f:      newFolder(ctx, cfg, len(jobs), start),
	}
	c.limit.Store(int64(len(jobs) - 1))
	if resilient {
		c.lease = res.lease()
		c.f.agg.dispatch = &c.stats
	}
	defer close(c.stop)

	if res.Checkpoint != "" {
		if err := c.openJournal(); err != nil {
			return nil, err
		}
	}
	// A failure in a resumed journal has already set limit, so only the
	// jobs below it that the journal lacks still run.
	n := min(target, c.open)
	c.workers = make([]workerState, n)
	for i := range c.workers {
		c.workers[i].job = -1
		if err := c.spawn(i); err != nil {
			c.abort(-1, err)
			break
		}
	}

	rep, err := c.loop()
	c.shutdownWorkers(c.interrupted || c.firstErr != nil)
	return rep, err
}

// openJournal creates or resumes the checkpoint journal and pre-folds any
// recovered outcomes.
func (c *coordinator) openJournal() error {
	hdr := c.res.Spec.header(len(c.jobs))
	if c.res.Resume {
		if _, err := os.Stat(c.res.Checkpoint); err == nil {
			j, recovered, err := OpenJournal(c.res.Checkpoint, hdr)
			if err != nil {
				return err
			}
			c.journal = j
			for job, out := range recovered {
				if job < 0 || job >= len(c.jobs) || c.done[job] {
					continue
				}
				c.resolve(job)
				c.stats.Resumed++
				c.f.push(indexed{idx: job, out: out})
				if c.cfg.StopOnFail && !out.Ok {
					c.stopAfter(job)
				}
			}
			c.res.logf("campaign: resumed %d/%d jobs from %s", c.stats.Resumed, len(c.jobs), c.res.Checkpoint)
		} else if os.IsNotExist(err) {
			c.res.logf("campaign: -resume with no journal at %s; starting fresh", c.res.Checkpoint)
		} else {
			return err
		}
	}
	if c.journal == nil {
		j, err := CreateJournal(c.res.Checkpoint, hdr)
		if err != nil {
			return err
		}
		c.journal = j
	}
	c.journal.onAppend = func(n int) error {
		if fault := c.res.Chaos.TailFaultAt(n); fault != faultinject.TailNone {
			return injectedCrash{fault: fault}
		}
		return nil
	}
	return nil
}

func (c *coordinator) loop() (*Report, error) {
	// doneCh is disarmed after its first fire: the channel stays closed
	// forever, and re-selecting it would spin the loop while in-flight
	// results drain.
	doneCh := c.ctx.Done()
	onDone := func() {
		doneCh = nil
		c.stopDispatch = true
		if c.parent.Err() != nil {
			// External cancellation (SIGINT relayed by the caller), not our
			// own abort.
			c.interrupted = true
			c.res.logf("campaign: interrupted; waiting for in-flight jobs (leases bound the wait)")
		}
	}
	var (
		timerC  <-chan time.Time
		timerAt time.Time
	)
	for c.open > 0 {
		// Observe cancellation before dispatching, not only in the select —
		// a cancel raised inside handle() (OnResult, an abort) must not let
		// another dispatch round slip through first.
		if doneCh != nil && c.ctx.Err() != nil {
			onDone()
		}
		c.dispatchReady()
		if c.stopDispatch && c.inflight() == 0 {
			break
		}
		// A pending timer that fires early only costs an idle tick, so
		// one is replaced only by an earlier wake.
		if wake := c.nextWake(); !wake.IsZero() && (timerC == nil || wake.Before(timerAt)) {
			timerC, timerAt = c.clock.After(max(0, wake.Sub(c.clock.Now()))), wake
		}
		select {
		case ev := <-c.events:
			// Take what else has arrived before the next dispatch round.
			for more := true; more; {
				if rep, err, final := c.handle(ev); final {
					return rep, err
				}
				select {
				case ev = <-c.events:
				default:
					more = false
				}
			}
		case <-timerC:
			timerC = nil
			c.onTick()
		case <-doneCh:
			onDone()
			c.onTick()
		}
	}
	return c.finish()
}

// finish closes the journal and assembles the final report for every
// non-crash exit.
func (c *coordinator) finish() (*Report, error) {
	var journalErr error
	if c.journal != nil {
		journalErr = c.journal.Close()
	}
	if c.interrupted && c.journal != nil {
		rep := c.f.report(c.target, c.quarantined)
		return rep, &InterruptedError{
			Checkpoint: c.res.Checkpoint,
			Done:       c.resolved,
			Jobs:       len(c.jobs),
			Cause:      context.Cause(c.parent),
		}
	}
	// Fold everything unresolved as skipped (interrupt without a checkpoint,
	// StopOnFail, job error) so the summary accounts for every job.
	for i := range c.jobs {
		if !c.done[i] {
			c.f.push(indexed{idx: i, skipped: true})
		}
	}
	rep := c.f.report(c.target, c.quarantined)
	if c.firstErr != nil {
		return rep, c.firstErr
	}
	if journalErr != nil {
		return rep, fmt.Errorf("campaign: closing checkpoint journal: %w", journalErr)
	}
	return rep, nil
}

// crash is the injected-coordinator-death exit: close the journal with
// everything appended so far, then mangle its tail as the fault dictates.
// It reports as done the outcomes a resume recovers: every resumed and
// checkpointed one, plus the record whose append crashed when its tail is
// clean (a torn or corrupt tail drops it).
func (c *coordinator) crash(fault faultinject.TailFault) (*Report, error) {
	if c.journal != nil {
		_ = c.journal.Close()
		switch fault {
		case faultinject.TailTruncate:
			if err := MangleTail(c.res.Checkpoint, "trunc"); err != nil {
				return nil, err
			}
		case faultinject.TailCorrupt:
			if err := MangleTail(c.res.Checkpoint, "corrupt"); err != nil {
				return nil, err
			}
		}
	}
	done := int(c.stats.Resumed + c.stats.Checkpointed)
	if fault == faultinject.TailClean {
		done++
	}
	rep := c.f.report(c.target, c.quarantined)
	return rep, &InterruptedError{
		Checkpoint: c.res.Checkpoint,
		Done:       done,
		Jobs:       len(c.jobs),
		Injected:   true,
	}
}

func (c *coordinator) inflight() int {
	n := 0
	for i := range c.workers {
		if c.workers[i].job != -1 {
			n++
		}
	}
	return n
}

// claim takes the next attempt-0 job off the cursor, in index order, for
// the coordinator or an in-process worker. Jobs resumed from the journal
// are passed over: done[j] of a job nobody claimed is written only before
// the workers start. -1 means none is left or the campaign is cancelled.
func (c *coordinator) claim() int {
	for c.ctx.Err() == nil {
		j := int(c.cursor.Add(1) - 1)
		if j >= len(c.jobs) || int64(j) > c.limit.Load() {
			return -1
		}
		if !c.done[j] {
			return j
		}
	}
	return -1
}

// dispatchReady grants due attempts to idle workers: attempt-0 jobs off the
// cursor first, then requeued attempts whose backoff has passed.
func (c *coordinator) dispatchReady() {
	for i := range c.workers {
		if ws := &c.workers[i]; ws.job == -1 && !c.stopDispatch {
			req := workReq{Job: c.claim()}
			if req.Job < 0 {
				for len(c.retry) > 0 && (c.done[c.retry[0].job] || int64(c.retry[0].job) > c.limit.Load()) {
					heap.Pop(&c.retry)
				}
				if len(c.retry) == 0 || c.retry[0].readyAt.After(c.clock.Now()) {
					return
				}
				it := heap.Pop(&c.retry).(readyItem)
				req.Job, req.Attempt = it.job, it.attempt
			}
			req.Seed = SeedFor(c.cfg.Seed, req.Job)
			c.grant(ws, req)
		}
	}
}

// grant leases req on ws and hands it to the worker.
func (c *coordinator) grant(ws *workerState, req workReq) {
	c.leaseOn(ws, req.Job, req.Attempt)
	if ws.proc == nil {
		// An idle in-process worker waits on its empty channel. Without
		// leases it has none and has exited, but then nothing falls due:
		// its last claim found the cursor spent or the campaign cancelled,
		// and only leases requeue.
		ws.ch <- req
		return
	}
	if err := ws.proc.enc.Encode(req); err != nil {
		// A failed write means the worker is dying; its death notice will
		// requeue the lease. Shorten the deadline so a silent failure
		// cannot stall the job for a full lease.
		c.res.logf("campaign: dispatch to worker failed (%v); lease will be reclaimed", err)
		ws.deadline = c.clock.Now()
	}
}

// leaseOn records that ws holds attempt of job.
func (c *coordinator) leaseOn(ws *workerState, job, attempt int) {
	ws.job, ws.attempt, ws.expired = job, attempt, false
	if c.lease > 0 {
		ws.deadline = c.clock.Now().Add(c.lease)
	}
	c.stats.Leases++
}

// nextWake returns the earliest instant the coordinator must act without an
// event, a lease deadline or a retry's backoff expiry, or the zero time.
func (c *coordinator) nextWake() (wake time.Time) {
	consider := func(t time.Time) {
		if wake.IsZero() || t.Before(wake) {
			wake = t
		}
	}
	for i := range c.workers {
		if ws := &c.workers[i]; c.lease > 0 && ws.job >= 0 && !ws.expired {
			consider(ws.deadline)
		}
	}
	if len(c.retry) > 0 && c.retry[0].readyAt.After(c.clock.Now()) {
		consider(c.retry[0].readyAt)
	}
	return wake
}

// onTick expires overdue leases: the job is requeued at once, and a process
// worker (whose serial pipeline the hung job blocks) is killed too.
func (c *coordinator) onTick() {
	if c.lease == 0 {
		return
	}
	now := c.clock.Now()
	for i := range c.workers {
		ws := &c.workers[i]
		if ws.job < 0 || ws.expired || ws.deadline.After(now) {
			continue
		}
		ws.expired = true
		c.stats.Expired++
		c.res.logf("campaign: lease on job %d expired (attempt %d)", ws.job, ws.attempt)
		// Expired slots are excluded from the death-notice requeue, so this
		// is the only one. A late result from the old attempt is
		// deduplicated.
		c.lost(ws, fmt.Sprintf("lease expired after %s (attempt %d)", c.lease, ws.attempt))
		if ws.proc != nil {
			ws.proc.kill() // its death notice triggers the respawn
		}
	}
}

// lost records why the attempt on ws was lost and requeues its job.
func (c *coordinator) lost(ws *workerState, why string) {
	if c.lastErr == nil {
		c.lastErr = make(map[int]string)
	}
	c.lastErr[ws.job] = why
	c.requeue(ws.job, ws.attempt)
}

// requeue puts a lost attempt back on the queue with capped exponential
// backoff and deterministic jitter, or quarantines the job once its retry
// budget is spent.
func (c *coordinator) requeue(job, failedAttempt int) {
	if c.done[job] {
		return
	}
	next := failedAttempt + 1
	if next > c.res.retries() {
		c.quarantined = append(c.quarantined, QuarantineRecord{
			Job:      job,
			Name:     c.jobs[job].Name,
			Attempts: next,
			LastErr:  c.lastErr[job],
		})
		c.stats.Quarantined++
		c.resolve(job)
		c.f.push(indexed{idx: job, quarantined: true})
		c.res.logf("campaign: quarantined job %d (%s) after %d attempts: %s", job, c.jobs[job].Name, next, c.lastErr[job])
		return
	}
	c.stats.Requeues++
	delay := c.res.backoff(next, SeedFor(c.cfg.Seed, job))
	heap.Push(&c.retry, readyItem{job: job, attempt: next, readyAt: c.clock.Now().Add(delay), seq: c.seq})
	c.seq++
}

// abort records a fatal infrastructure error and stops dispatching; in-flight
// results still fold.
func (c *coordinator) abort(jobIdx int, err error) {
	if c.firstErr == nil || (jobIdx >= 0 && jobIdx < c.errIdx) {
		c.firstErr, c.errIdx = err, jobIdx
	}
	c.stopDispatch = true
	c.cancel()
}

// handle processes one worker event. final reports that the campaign must
// return immediately (injected coordinator crash).
func (c *coordinator) handle(ev coordEvent) (*Report, error, bool) {
	ws := &c.workers[ev.worker]
	switch {
	case ev.down:
		c.handleDown(ws, ev)
		return nil, nil, false
	case ev.claim && ev.job < 0:
		ws.job = -1
		return nil, nil, false
	case ev.claim:
		c.leaseOn(ws, ev.job, 0)
		return nil, nil, false
	case ws.job == ev.job && ws.proc == nil:
		ws.job, ws.expired = claiming, false // it claims its next job itself
	case ws.job == ev.job:
		ws.job, ws.expired = -1, false
	}
	c.deaths = 0
	if ev.err != nil && c.ctx.Err() != nil && errors.Is(ev.err, c.ctx.Err()) {
		// The job was cut short by the cancellation: it did not complete,
		// so it is neither journaled nor folded, and a resume reruns it.
		return nil, nil, false
	}
	if int64(ev.job) > c.limit.Load() {
		// Started before a smaller job failed under StopOnFail: it folds
		// as skipped, like every job past that one.
		return nil, nil, false
	}
	if ev.err != nil {
		// A job error is an infrastructure failure that aborts the
		// campaign without a retry; the job folds as skipped.
		if !c.done[ev.job] {
			c.resolve(ev.job)
			c.f.push(indexed{idx: ev.job, skipped: true})
		}
		c.abort(ev.job, fmt.Errorf("campaign: job %d (%s): %w", ev.job, c.jobs[ev.job].Name, ev.err))
		return nil, nil, false
	}
	if c.done[ev.job] {
		return nil, nil, false // duplicate from an expired lease; outcomes are deterministic, first wins
	}
	if c.journal != nil {
		if err := c.journal.Append(ev.out); err != nil {
			var ic injectedCrash
			if errors.As(err, &ic) {
				rep, ierr := c.crash(ic.fault)
				return rep, ierr, true
			}
			c.abort(ev.job, fmt.Errorf("campaign: checkpoint append: %w", err))
			return nil, nil, false
		}
		c.stats.Checkpointed++
	}
	c.resolve(ev.job)
	c.f.push(indexed{idx: ev.job, out: ev.out})
	if c.cfg.StopOnFail && !ev.out.Ok {
		c.stopAfter(ev.job)
	}
	return nil, nil, false
}

// resolve marks job done.
func (c *coordinator) resolve(job int) {
	c.done[job] = true
	c.resolved++
	if int64(job) <= c.limit.Load() {
		c.open--
	}
}

// stopAfter makes job, a failed one, the last to run when it is below
// limit, and recounts the open jobs up to it. The jobs below it still run
// (a claim never passes one over), so the campaign ends at the same job
// however the jobs were spread.
func (c *coordinator) stopAfter(job int) {
	if int64(job) >= c.limit.Load() {
		return
	}
	c.limit.Store(int64(job))
	c.open = 0
	for _, done := range c.done[:job+1] {
		if !done {
			c.open++
		}
	}
}

// handleDown requeues the job a dead worker held, frees its slot and
// starts a replacement.
func (c *coordinator) handleDown(ws *workerState, ev coordEvent) {
	c.stats.WorkerDeaths++
	c.deaths++
	why := "exited"
	if ev.err != nil {
		why = ev.err.Error()
	}
	c.res.logf("campaign: worker %d died (%s)", ev.worker, why)
	if ws.job >= 0 && !ws.expired && !c.done[ws.job] {
		c.lost(ws, fmt.Sprintf("worker died (%s) holding attempt %d", why, ws.attempt))
	}
	ws.job, ws.expired = -1, false
	if c.deaths > maxConsecutiveDeaths {
		c.abort(-1, fmt.Errorf("campaign: %d consecutive worker deaths without progress, last: %s", c.deaths, why))
		return
	}
	if !c.stopDispatch && c.open > 0 {
		if err := c.spawn(ev.worker); err != nil {
			c.abort(-1, err)
			return
		}
		c.stats.Respawns++
	}
}

// spawn starts the worker of slot i: a child process, or an in-process
// goroutine.
func (c *coordinator) spawn(i int) error {
	ws := &c.workers[i]
	if c.res.Procs == 0 {
		if ws.ch == nil && c.lease > 0 {
			ws.ch = make(chan workReq, 1) // retries come only under leases
		}
		ws.job = claiming
		go c.goWork(i, ws.ch)
		return nil
	}
	pw, err := c.spawnProc(i)
	if err != nil {
		return fmt.Errorf("campaign: spawning worker process: %w", err)
	}
	ws.proc = pw
	return nil
}

// shutdownWorkers releases every worker: gracefully on clean completion
// (close of input), forcefully on abort/interrupt.
func (c *coordinator) shutdownWorkers(force bool) {
	for i := range c.workers {
		switch ws := &c.workers[i]; {
		case ws.ch != nil:
			close(ws.ch)
		case ws.proc == nil:
		case force:
			ws.proc.kill()
		default:
			ws.proc.stdin.Close() // the child exits after its current job
		}
	}
}

// send delivers an event unless the coordinator has already returned.
func (c *coordinator) send(ev coordEvent) bool {
	select {
	case c.events <- ev:
		return true
	default:
	}
	select {
	case c.events <- ev:
		return true
	case <-c.stop:
		return false
	}
}

// goWork is the in-process worker of slot i. It claims attempt-0 jobs
// itself, so it never waits on the coordinator while such jobs remain, and
// then runs the retries granted on ch until the coordinator closes it. A
// claim is reported before its job runs under leases, since the lease
// starts with it; without, only the final empty claim is. Injected
// worker-side faults execute here: a kill directive makes the goroutine
// die holding its job exactly like a crashed process (no result, a death
// notice), and stall/delay directives sleep while holding the lease.
func (c *coordinator) goWork(i int, ch <-chan workReq) {
	for completed := 0; ; completed++ {
		req := workReq{Job: c.claim()}
		if req.Job < 0 || c.lease > 0 {
			if !c.send(coordEvent{worker: i, job: req.Job, claim: true}) {
				return
			}
		}
		if req.Job < 0 {
			var ok bool
			if ch == nil { // no retries come without leases
				return
			} else if req, ok = <-ch; !ok {
				return
			}
		}
		if ka := c.res.Chaos.KillAfter(); ka > 0 && completed >= ka {
			c.res.logf("campaign: worker %d chaos-killed after %d jobs", i, completed)
			c.send(coordEvent{worker: i, down: true, err: fmt.Errorf("fault injection: killed after %d jobs", completed)})
			return
		}
		if d := c.res.Chaos.StallFor(req.Job, req.Attempt); d > 0 {
			c.clock.Sleep(d)
		}
		ev := coordEvent{worker: i, job: req.Job}
		ev.out, ev.err = runJob(c.ctx, c.jobs[req.Job], req.Job, SeedFor(c.cfg.Seed, req.Job))
		if d := c.res.Chaos.DelayFor(req.Job, req.Attempt); d > 0 {
			c.clock.Sleep(d)
		}
		if !c.send(ev) {
			return
		}
	}
}

// procWorker is a child worker process speaking the JSONL protocol; id is
// its slot.
type procWorker struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
}

func (c *coordinator) spawnProc(id int) (*procWorker, error) {
	argv := c.res.WorkerArgv
	cmd := exec.Command(argv[0], argv[1:]...)
	env := append(os.Environ(), EnvWorker+"=1")
	if spec := c.res.Chaos.Spec(); spec != "" {
		env = append(env, EnvChaos+"="+spec, fmt.Sprintf("%s=%d", EnvChaosSeed, c.res.Chaos.Seed()))
	}
	cmd.Env = env
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &procWorker{id: id, cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin)}
	go c.readProc(w, stdout)
	return w, nil
}

// readProc pumps one child's stdout into the event loop: hello validation,
// then results; on stream end it reaps the process and reports the death.
func (c *coordinator) readProc(w *procWorker, stdout io.Reader) {
	var readErr error
	dec := json.NewDecoder(stdout)
	sawHello := false
	for {
		var resp workResp
		if err := dec.Decode(&resp); err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		if resp.Hello != nil {
			if resp.Hello.Jobs != len(c.jobs) {
				readErr = fmt.Errorf("worker rebuilt %d jobs, coordinator has %d — argument drift between parent and worker", resp.Hello.Jobs, len(c.jobs))
				break
			}
			sawHello = true
			continue
		}
		if !sawHello {
			readErr = fmt.Errorf("worker spoke before its hello")
			break
		}
		ev := coordEvent{worker: w.id, job: resp.Job}
		switch {
		case resp.Err != "":
			ev.err = errors.New(resp.Err)
		case resp.Outcome != nil:
			ev.out = resp.Outcome.outcome()
		default:
			continue
		}
		if !c.send(ev) {
			break
		}
	}
	w.stdin.Close()
	if w.cmd.Process != nil && readErr != nil {
		w.cmd.Process.Kill()
	}
	waitErr := w.cmd.Wait()
	if readErr == nil {
		readErr = waitErr
	}
	c.send(coordEvent{worker: w.id, down: true, err: readErr})
}

func (w *procWorker) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}
