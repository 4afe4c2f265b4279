package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// runnerFingerprint captures everything about a run that the harness can
// observe without an observer: the global step count, per-process progress,
// and halt flags.
type runnerFingerprint struct {
	steps  int
	taken  []int
	halted []bool
}

func fingerprint(r *Runner, n int) runnerFingerprint {
	fp := runnerFingerprint{steps: r.Steps()}
	for p := 1; p <= n; p++ {
		fp.taken = append(fp.taken, r.StepsTaken(procset.ID(p)))
		fp.halted = append(fp.halted, r.Halted(procset.ID(p)))
	}
	return fp
}

func sameFingerprint(t *testing.T, label string, a, b runnerFingerprint) {
	t.Helper()
	if a.steps != b.steps {
		t.Fatalf("%s: step counts differ: %d vs %d", label, a.steps, b.steps)
	}
	for i := range a.taken {
		if a.taken[i] != b.taken[i] || a.halted[i] != b.halted[i] {
			t.Fatalf("%s: p%d progress differs: (%d,%v) vs (%d,%v)", label, i+1,
				a.taken[i], a.halted[i], b.taken[i], b.halted[i])
		}
	}
}

// ringNet is a minimal Network for engine tests: one FIFO queue per
// recipient, every message deliverable from the step after its send.
type ringNet struct {
	queues [][]Message
	seq    uint64
	got    Message
}

func newRingNet(n int) *ringNet { return &ringNet{queues: make([][]Message, n+1)} }

func (f *ringNet) Send(step int, from, to procset.ID, payload any) {
	f.seq++
	f.queues[to] = append(f.queues[to], Message{From: from, SentStep: step, Seq: f.seq, Payload: payload})
}

func (f *ringNet) Recv(_ int, to procset.ID) *Message {
	q := f.queues[to]
	if len(q) == 0 {
		return nil
	}
	f.got, f.queues[to] = q[0], q[1:]
	return &f.got
}

func (f *ringNet) Reset() {
	for i := range f.queues {
		f.queues[i] = f.queues[i][:0]
	}
	f.seq = 0
}

// ringMachine passes numbered messages around the ring of processes: it
// sends its next count to its successor, polls for a message, and writes
// the last payload it received (0 when its poll came back empty) to its own
// register, so a run mixes all four op kinds.
func ringMachine(n int) func(procset.ID, Registry) Machine {
	return func(p procset.ID, regs Registry) Machine {
		own := regs.Reg(fmt.Sprintf("got[%d]", p))
		to := p%procset.ID(n) + 1
		phase, sent := 0, 0
		var opBuf Op
		return MachineFunc(func(prev any) *Op {
			phase = (phase + 1) % 3
			switch phase {
			case 1:
				sent++
				opBuf = SendOp(to, sent)
				return &opBuf
			case 2:
				opBuf = RecvOp()
				return &opBuf
			}
			v := 0
			if m, ok := prev.(*Message); ok {
				v = m.Payload.(int)
			}
			opBuf = WriteOp(own, v)
			return &opBuf
		})
	}
}

// haltingCounter is counterMachine halting after its writes-th write.
func haltingCounter(writes int) func(procset.ID, Registry) Machine {
	return func(p procset.ID, regs Registry) Machine {
		counter, steps := counterMachine(p, regs), 0
		return MachineFunc(func(prev any) *Op {
			if steps == 2*writes {
				return nil
			}
			steps++
			return counter.NextOp(prev)
		})
	}
}

// replayDirector is a Director that replays a fixed schedule and records
// every write callback.
type replayDirector struct {
	s      sched.Schedule
	pos    int
	writes []writeEvent
}

func (d *replayDirector) Next() procset.ID {
	p := d.s[d.pos]
	d.pos++
	return p
}

func (d *replayDirector) OnWrite(slot RegID, p procset.ID, value any) {
	d.writes = append(d.writes, writeEvent{slot: slot, proc: p, value: value})
}

// inertMutator is a replayDirector whose WriteMutator lets every write land
// unchanged.
type inertMutator struct{ *replayDirector }

func (inertMutator) MutateWrite(_ RegID, _ procset.ID, _, value any) any { return value }

// entryOutcome is everything one run exposes to its harness.
type entryOutcome struct {
	res    RunResult
	fp     runnerFingerprint
	stats  Stats
	dump   string
	values []any
	writes []writeEvent
}

// TestRunBatchMatchesStepLoop is the entry-point differential test: one
// schedule and one stop predicate through a Step loop, Run without and with
// an observer, RunSchedule, RunDirected with a schedule-replaying director,
// and RunDirected with an inert WriteMutator on a NoRecycle runner. All six
// must agree on the RunResult, the runner state, Stats, the flight-recorder
// dump, the final register contents and, where the entry point reports
// them, the writes. The machines cover a counter, automata that halt
// mid-schedule, and a send/recv ring.
func TestRunBatchMatchesStepLoop(t *testing.T) {
	t.Parallel()
	const n, maxSteps, checkEvery = 4, 5000, 37
	src, err := sched.Random(n, 42, map[procset.ID]int{4: 100})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, maxSteps)
	replay := func() sched.Source {
		src, err := sched.Replay(n, s, s)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	machines := []struct {
		name   string
		config func() Config
		stopAt int // steps taken by p1 that trigger the stop predicate
	}{
		{"counter", func() Config { return Config{N: n, Machine: counterMachine} }, 70},
		{"halting", func() Config { return Config{N: n, Machine: haltingCounter(10)} }, 20},
		{"sendrecv", func() Config { return Config{N: n, Machine: ringMachine(n), Network: newRingNet(n)} }, 70},
	}
	// Each entry drives r over s and returns its result plus the writes it
	// reports (nil if it reports none; an observer's writes are added by the
	// loop below). want is the Step loop's outcome, entries[0].
	entries := []struct {
		name               string
		observe, noRecycle bool
		run                func(r *Runner, stop func() bool, want entryOutcome) (RunResult, []writeEvent)
	}{
		{"step-loop", false, false, func(r *Runner, stop func() bool, _ entryOutcome) (RunResult, []writeEvent) {
			var writes []writeEvent
			for i, p := range s {
				if info := r.Step(p); info.Kind == OpWrite {
					writes = append(writes, writeEvent{slot: r.mem.idOf(info.Reg), proc: p, value: info.Value})
				}
				if (i+1)%checkEvery == 0 && stop() {
					return RunResult{Steps: i + 1, Stopped: true}, writes
				}
			}
			return RunResult{Steps: len(s)}, writes
		}},
		{"run", false, false, func(r *Runner, stop func() bool, _ entryOutcome) (RunResult, []writeEvent) {
			return r.Run(replay(), len(s), checkEvery, stop), nil
		}},
		{"run-observed", true, false, func(r *Runner, stop func() bool, _ entryOutcome) (RunResult, []writeEvent) {
			return r.Run(replay(), len(s), checkEvery, stop), nil
		}},
		{"run-schedule", false, false, func(r *Runner, _ func() bool, want entryOutcome) (RunResult, []writeEvent) {
			r.RunSchedule(s[:want.res.Steps])
			return want.res, nil
		}},
		{"directed", false, false, func(r *Runner, stop func() bool, _ entryOutcome) (RunResult, []writeEvent) {
			d := &replayDirector{s: s}
			return r.RunDirected(d, len(s), checkEvery, stop), d.writes
		}},
		{"directed-mutator", false, true, func(r *Runner, stop func() bool, _ entryOutcome) (RunResult, []writeEvent) {
			d := inertMutator{&replayDirector{s: s}}
			return r.RunDirected(d, len(s), checkEvery, stop), d.writes
		}},
	}

	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			var want entryOutcome
			for i, e := range entries {
				cfg := m.config()
				cfg.NoRecycle = e.noRecycle
				var observed []StepInfo
				if e.observe {
					cfg.Observer = func(info StepInfo) {
						if info.Kind == OpWrite {
							observed = append(observed, info)
						}
					}
				}
				r, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				fr := NewFlightRecorder(64)
				r.SetFlightRecorder(fr)
				res, writes := e.run(r, func() bool { return r.StepsTaken(1) >= m.stopAt }, want)
				for _, info := range observed {
					writes = append(writes, writeEvent{slot: r.mem.idOf(info.Reg), proc: info.Proc, value: info.Value})
				}
				var dump strings.Builder
				fr.Dump(&dump, r)
				got := entryOutcome{
					res:    res,
					fp:     fingerprint(r, n),
					stats:  r.Stats(),
					dump:   dump.String(),
					values: r.mem.values,
					writes: writes,
				}
				if i == 0 {
					if !res.Stopped || len(writes) == 0 {
						t.Fatalf("reference run must stop early and write: %+v, %d writes", res, len(writes))
					}
					want = got
					continue
				}
				if got.writes == nil {
					got.writes = want.writes // the entry point reports no writes
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverges from the step loop:\n got %+v\nwant %+v", e.name, got, want)
				}
			}
		})
	}
}

// BenchmarkRunBatch is the batch loop's headline number: the same machine
// workload driven by Step in a loop, by the generic Run loop (observer
// present), and by the batched fast path.
func BenchmarkRunBatch(b *testing.B) {
	const n = 4
	newSrc := func(b *testing.B) sched.Source {
		src, err := sched.Random(n, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	b.Run("step-loop", func(b *testing.B) {
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		src := newSrc(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Step(src.Next())
		}
	})
	b.Run("generic-run", func(b *testing.B) {
		r, err := NewRunner(Config{N: n, Machine: counterMachine, Observer: func(StepInfo) {}})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		src := newSrc(b)
		b.ResetTimer()
		r.Run(src, b.N, 500, func() bool { return false })
	})
	b.Run("batch", func(b *testing.B) {
		r, err := NewRunner(Config{N: n, Machine: counterMachine})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		src := newSrc(b)
		b.ResetTimer()
		r.Run(src, b.N, 500, func() bool { return false })
	})
}
