package campaign

import (
	"context"
	"fmt"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Cell is one job of a Sweep: its name, the key of the pool its rig comes
// from, and the run indices [Lo, Hi) it executes on that rig.
type Cell[K comparable] struct {
	Name   string
	Key    K
	Lo, Hi int
}

// Sweep is a campaign over pooled rigs, the shape every campaign family
// shares: cells of runs, a reusable rig per worker and key, and a one-run
// body. RunSweep owns the rest: the keyed pools, the job list, the
// ctx-checked run loop, flight recording, the panic tail, and the decode
// of each job's Detail.
type Sweep[K comparable, R, D any] struct {
	// Config is the engine configuration; its OnResult, if set, still
	// receives every outcome in job-index order.
	Config
	Cells []Cell[K]
	// Build makes a rig for a key. RunSweep builds one rig per key before
	// any job starts, so a bad configuration fails ahead of the campaign.
	Build func(K) (R, error)
	// Runner, if set, returns a rig's simulator (nil for a rig without
	// one). RunSweep attaches the context's flight recorder (obs.FlightK)
	// to it, empties the ring before each run, re-raises a panicking job
	// with the ring's tail, and closes the runner when the sweep ends.
	Runner func(R) *sim.Runner
	// Run executes run i of job j, whose derived seed is seed, on rig and
	// folds its result into out, whose Tallies map is ready for use. stop
	// ends the job after this run; an error aborts the campaign.
	Run func(rig R, out *Outcome, j int, seed int64, i int) (stop bool, err error)
	// Done, if set, completes job j's outcome after its last run; runs
	// counts the runs executed, fewer than the cell's when the job stopped
	// early. A job the campaign's cancellation cuts short has no outcome.
	Done func(out *Outcome, j, runs int)
}

// slot is one pool entry: a rig, its runner and flight recorder (nil
// without), and the outcome of the job it serves, kept here so that a job's
// outcome is not allocated per job.
type slot[R any] struct {
	rig    R
	runner *sim.Runner
	flight *sim.FlightRecorder
	out    Outcome
}

// RunSweep runs the sweep's cells as one campaign. Next to the report it
// returns each job's Detail decoded as D (DecodeDetail, so fresh, resumed
// and worker-process outcomes decode alike), indexed by job; a job that
// carried none, panicked or did not complete keeps the zero D.
func RunSweep[K comparable, R, D any](ctx context.Context, s Sweep[K, R, D]) (*Report, []D, error) {
	flightK := obs.FlightK(ctx)
	build := func(k K) (*slot[R], error) {
		sl := &slot[R]{}
		var err error
		if sl.rig, err = s.Build(k); err == nil && s.Runner != nil {
			sl.runner = s.Runner(sl.rig)
		}
		if sl.runner != nil && flightK > 0 {
			sl.flight = sim.NewFlightRecorder(flightK)
			sl.runner.SetFlightRecorder(sl.flight)
		}
		return sl, err
	}
	pools := make(map[K]*Pool[*slot[R]])
	defer func() {
		for _, p := range pools {
			p.Drain(func(sl *slot[R]) {
				if sl.runner != nil {
					sl.runner.Close()
				}
			})
		}
	}()
	jobs := make([]Job, len(s.Cells))
	for j, c := range s.Cells {
		pool := pools[c.Key]
		if pool == nil {
			sl, err := build(c.Key)
			if err != nil {
				return nil, nil, err
			}
			pool = NewPool(func() (*slot[R], error) { return build(c.Key) })
			pool.Put(sl)
			pools[c.Key] = pool
		}
		jobs[j] = Job{Name: c.Name, Run: func(ctx context.Context, seed int64) (Outcome, error) {
			sl, err := pool.Get()
			if err != nil {
				return Outcome{}, err
			}
			// A panicking job unwinds past Put: its rig stopped mid-run
			// and is dropped rather than recycled.
			out, err := s.job(ctx, sl, j, seed)
			pool.Put(sl)
			return out, err
		}}
	}
	details := make([]D, len(jobs))
	cfg := s.Config
	cfg.OnResult = func(o Outcome) {
		// A panicked job's Detail is a PanicDetail, raw JSON once it crossed
		// the worker wire or the journal: it is no D, whatever D accepts.
		if d, ok := DecodeDetail[D](o.Detail); ok && o.Verdict != "panic" {
			details[o.Job] = d
		}
		if s.OnResult != nil {
			s.OnResult(o)
		}
	}
	rep, err := Run(ctx, cfg, jobs)
	return rep, details, err
}

// job runs job j's cell on the slot's rig and returns its outcome.
func (s *Sweep[K, R, D]) job(ctx context.Context, sl *slot[R], j int, seed int64) (Outcome, error) {
	if sl.flight != nil {
		defer func() {
			if rec := recover(); rec != nil {
				if dump := obs.FlightDump(sl.runner); dump != "" {
					panic(fmt.Sprintf("%v\nflight recorder tail:\n%s", rec, dump))
				}
				panic(rec)
			}
		}()
	}
	sl.out = Outcome{Tallies: map[string]int{}}
	c := &s.Cells[j]
	runs := 0
	for i := c.Lo; i < c.Hi; i++ {
		if err := ctx.Err(); err != nil {
			// A partial outcome is no outcome: the coordinator neither
			// folds nor journals a job cut short by the cancellation.
			return Outcome{}, err
		}
		runs++
		if sl.flight != nil {
			// The ring keeps steps across Runner.Reset; a tail must hold
			// this run's steps only.
			sl.flight.Reset()
		}
		stop, err := s.Run(sl.rig, &sl.out, j, seed, i)
		if err != nil {
			return Outcome{}, err
		}
		if stop {
			break
		}
	}
	if s.Done != nil {
		s.Done(&sl.out, j, runs)
	}
	out := sl.out
	sl.out = Outcome{}
	return out, nil
}
