package sim

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// dirPingMachine writes an incrementing counter to its own register and
// reads a shared one, so directed runs see an even read/write mix with
// distinguishable values.
type dirPingMachine struct {
	own, shared Ref
	n           int
	flip        bool
	op          Op
}

func (m *dirPingMachine) NextOp(prev any) *Op {
	m.flip = !m.flip
	if m.flip {
		m.n++
		m.op = WriteOp(m.own, m.n)
		return &m.op
	}
	m.op = ReadOp(m.shared)
	return &m.op
}

func dirPingConfig(n int) func(p procset.ID, regs Registry) Machine {
	return func(p procset.ID, regs Registry) Machine {
		return &dirPingMachine{
			own:    regs.Reg(fmt.Sprintf("own[%d]", p)),
			shared: regs.Reg("shared"),
		}
	}
}

// writeEvent is one OnWrite callback.
type writeEvent struct {
	slot  RegID
	proc  procset.ID
	value any
}

// recordingDirector round-robins and records every callback.
type recordingDirector struct {
	n      int
	pos    int
	sched  []procset.ID
	writes []writeEvent
}

func (d *recordingDirector) Next() procset.ID {
	p := procset.ID(d.pos%d.n + 1)
	d.pos++
	d.sched = append(d.sched, p)
	return p
}

func (d *recordingDirector) OnWrite(slot RegID, proc procset.ID, value any) {
	d.writes = append(d.writes, writeEvent{slot: slot, proc: proc, value: value})
}

// TestRunDirectedCallbacks pins the Director contract on the machine fast
// path: OnWrite fires exactly once per write step with the written value and
// the slot resolvable through RegName, and read steps produce no callback.
func TestRunDirectedCallbacks(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: dirPingConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := &recordingDirector{n: 2}
	res := r.RunDirected(d, 20, 0, nil)
	if res.Steps != 20 || res.Stopped {
		t.Fatalf("RunDirected = %+v", res)
	}
	// Each process alternates write/read from its first activation; the
	// 20-step round-robin run grants 10 steps each, so 5 writes per process.
	if len(d.writes) != 10 {
		t.Fatalf("saw %d writes, want 10 (of 20 steps)", len(d.writes))
	}
	for i, w := range d.writes {
		name := r.RegName(w.slot)
		want := fmt.Sprintf("own[%d]", w.proc)
		if name != want {
			t.Errorf("write %d: slot %d resolves to %q, want %q", i, w.slot, name, want)
		}
		// Writers count 1, 2, 3, ... per process.
		if w.value != i/2+1 {
			t.Errorf("write %d: value %v, want %d", i, w.value, i/2+1)
		}
	}
}

// TestRunDirectedStopParity pins stop/checkEvery semantics against Run's
// documented contract: the predicate fires only at multiples of checkEvery,
// and the directed fast path and the generic fallback agree step for step.
func TestRunDirectedStopParity(t *testing.T) {
	t.Parallel()
	type result struct {
		steps   int
		stopped bool
		checks  int
	}
	drive := func(coroutine bool, stopAt int) result {
		cfg := Config{N: 2}
		if coroutine {
			cfg.Algorithm = func(p procset.ID) Algorithm {
				return func(env Env) {
					own := env.Reg(fmt.Sprintf("own[%d]", p))
					shared := env.Reg("shared")
					for i := 1; ; i++ {
						env.Write(own, i)
						env.Read(shared)
					}
				}
			}
		} else {
			cfg.Machine = dirPingConfig(2)
		}
		r, err := NewRunner(cfg)
		if err != nil {
			panic(err)
		}
		defer r.Close()
		d := &recordingDirector{n: 2}
		checks := 0
		res := r.RunDirected(d, 100, 7, func() bool {
			checks++
			return r.Steps() >= stopAt
		})
		return result{steps: res.Steps, stopped: res.Stopped, checks: checks}
	}
	for _, stopAt := range []int{1, 30, 1000} {
		machine := drive(false, stopAt)
		coroutine := drive(true, stopAt)
		if machine != coroutine {
			t.Errorf("stopAt=%d: fast path %+v vs generic %+v", stopAt, machine, coroutine)
		}
		// Stops land on multiples of checkEvery.
		if machine.stopped && machine.steps%7 != 0 {
			t.Errorf("stopAt=%d: stopped at %d, not a multiple of checkEvery", stopAt, machine.steps)
		}
	}
}

// TestRunDirectedCoroutineWrites pins the generic fallback's OnWrite parity:
// a coroutine runner reports the same write sequence (by register name) as
// the machine fast path.
func TestRunDirectedCoroutineWrites(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Algorithm: func(p procset.ID) Algorithm {
		return func(env Env) {
			own := env.Reg(fmt.Sprintf("own[%d]", p))
			shared := env.Reg("shared")
			for i := 1; ; i++ {
				env.Write(own, i)
				env.Read(shared)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := &recordingDirector{n: 2}
	r.RunDirected(d, 20, 0, nil)
	if len(d.writes) != 10 {
		t.Fatalf("saw %d writes, want 10", len(d.writes))
	}
	for i, w := range d.writes {
		if got, want := r.RegName(w.slot), fmt.Sprintf("own[%d]", w.proc); got != want {
			t.Errorf("write %d: slot resolves to %q, want %q", i, got, want)
		}
	}
}
