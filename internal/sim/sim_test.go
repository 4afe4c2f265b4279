package sim

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// counterAlgo increments a shared counter forever; each iteration is a read
// step followed by a write step.
func counterAlgo(env Env) {
	c := env.Reg("counter")
	for {
		v, _ := env.Read(c).(int)
		env.Write(c, v+1)
	}
}

// counterMachine is counterAlgo in direct-dispatch form: the same automaton
// with its program counter made explicit.
func counterMachine(_ procset.ID, regs Registry) Machine {
	c := regs.Reg("counter")
	read := ReadOp(c)
	var write Op
	reading := true
	return MachineFunc(func(prev any) *Op {
		if reading {
			reading = false
			return &read
		}
		reading = true
		v, _ := prev.(int)
		write = WriteOp(c, v+1)
		return &write
	})
}

func newTestRunner(t *testing.T, n int, algo func(p procset.ID) Algorithm) *Runner {
	t.Helper()
	r, err := NewRunner(Config{N: n, Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestSingleProcessCounter(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 1, func(procset.ID) Algorithm { return counterAlgo })
	for i := 0; i < 10; i++ {
		r.Step(1)
	}
	// 10 steps = 5 read/write pairs.
	reg := r.mem.reg("counter")
	if got := r.mem.read(reg); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
	if r.StepsTaken(1) != 10 {
		t.Errorf("StepsTaken = %d, want 10", r.StepsTaken(1))
	}
}

func TestTwoProcessesShareRegister(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 2, func(procset.ID) Algorithm { return counterAlgo })
	// Interleave so that both read 0 before either writes: lost update, the
	// classic read/write race the model permits.
	// p1 read, p2 read, p1 write(1), p2 write(1).
	for _, p := range []procset.ID{1, 2, 1, 2} {
		r.Step(p)
	}
	reg := r.mem.reg("counter")
	if got := r.mem.read(reg); got != 1 {
		t.Errorf("counter = %v, want 1 (lost update)", got)
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() []StepInfo {
		var trace []StepInfo
		r, err := NewRunner(Config{
			N:         3,
			Algorithm: func(procset.ID) Algorithm { return counterAlgo },
			Observer:  func(s StepInfo) { trace = append(trace, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		src, err := sched.Random(3, 99, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(src, 300, 0, nil)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at step %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHaltedProcessNoop(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 1, func(procset.ID) Algorithm {
		return func(env Env) {
			env.Write(env.Reg("x"), 42)
		}
	})
	info := r.Step(1)
	if info.Kind != OpWrite || info.Value != 42 {
		t.Fatalf("first step = %+v", info)
	}
	// The algorithm has returned; further steps are no-ops.
	info = r.Step(1)
	if info.Kind != OpNoop {
		t.Fatalf("second step = %+v, want noop", info)
	}
	if !r.Halted(1) {
		t.Error("Halted = false after return")
	}
	if r.StepsTaken(1) != 1 {
		t.Errorf("StepsTaken = %d, want 1 (noop steps do not count)", r.StepsTaken(1))
	}
}

func TestHarnessSeesLocalOutputsAfterStep(t *testing.T) {
	t.Parallel()
	// The park barrier guarantees that local state shared with the harness
	// is visible and quiescent when Step returns.
	out := make([]int, 3)
	r := newTestRunner(t, 2, func(p procset.ID) Algorithm {
		return func(env Env) {
			c := env.Reg("c")
			for i := 1; ; i++ {
				env.Read(c)
				out[p] = i // local post-step computation
			}
		}
	})
	for i := 1; i <= 5; i++ {
		r.Step(1)
		if out[1] != i {
			t.Fatalf("after step %d: out[1] = %d", i, out[1])
		}
	}
	if out[2] != 0 {
		t.Errorf("out[2] = %d, want 0 (never scheduled)", out[2])
	}
}

func TestObserverSequence(t *testing.T) {
	t.Parallel()
	var trace []StepInfo
	r, err := NewRunner(Config{
		N: 2,
		Algorithm: func(p procset.ID) Algorithm {
			return func(env Env) {
				x := env.Reg("x")
				env.Write(x, int(p))
				env.Read(x)
			}
		},
		Observer: func(s StepInfo) { trace = append(trace, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 2, 1, 2})
	want := []StepInfo{
		{Index: 0, Proc: 1, Kind: OpWrite, Reg: "x", Value: 1},
		{Index: 1, Proc: 2, Kind: OpWrite, Reg: "x", Value: 2},
		{Index: 2, Proc: 1, Kind: OpRead, Reg: "x", Value: 2},
		{Index: 3, Proc: 2, Kind: OpRead, Reg: "x", Value: 2},
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %+v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, trace[i], want[i])
		}
	}
}

func TestReadUnwrittenRegisterIsNil(t *testing.T) {
	t.Parallel()
	var got any = "sentinel"
	r := newTestRunner(t, 1, func(procset.ID) Algorithm {
		return func(env Env) {
			got = env.Read(env.Reg("fresh"))
		}
	})
	r.Step(1)
	if got != nil {
		t.Errorf("read fresh register = %v, want nil", got)
	}
}

func TestRunStopPredicate(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 1, func(procset.ID) Algorithm { return counterAlgo })
	src, err := sched.RoundRobin(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(src, 1000, 0, func() bool { return r.Steps() >= 7 })
	if !res.Stopped || res.Steps != 7 {
		t.Errorf("Run = %+v, want stopped at 7", res)
	}
	res = r.Run(src, 5, 0, func() bool { return false })
	if res.Stopped || res.Steps != 5 {
		t.Errorf("Run = %+v, want budget exhaustion at 5", res)
	}
}

func TestRunCheckEvery(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 1, func(procset.ID) Algorithm { return counterAlgo })
	src, err := sched.RoundRobin(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res := r.Run(src, 100, 10, func() bool { calls++; return true })
	if calls != 1 || res.Steps != 10 {
		t.Errorf("checkEvery: calls = %d, steps = %d", calls, res.Steps)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewRunner(Config{N: 0, Algorithm: func(procset.ID) Algorithm { return counterAlgo }}); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := NewRunner(Config{N: 65, Algorithm: func(procset.ID) Algorithm { return counterAlgo }}); err == nil {
		t.Error("n = 65 accepted")
	}
	if _, err := NewRunner(Config{N: 2}); err == nil {
		t.Error("neither Algorithm nor Machine rejected")
	}
	if _, err := NewRunner(Config{
		N:         2,
		Algorithm: func(procset.ID) Algorithm { return counterAlgo },
		Machine:   counterMachine,
	}); err == nil {
		t.Error("both Algorithm and Machine accepted")
	}
	if _, err := NewRunner(Config{N: 2, Algorithm: func(procset.ID) Algorithm { return nil }}); err == nil {
		t.Error("nil per-process algorithm accepted")
	}
	if _, err := NewRunner(Config{N: 2, Machine: func(procset.ID, Registry) Machine { return nil }}); err == nil {
		t.Error("nil per-process machine accepted")
	}
}

func TestCloseReleasesBlockedProcesses(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 8, Algorithm: func(procset.ID) Algorithm { return counterAlgo }})
	if err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	r.Close()
	r.Close() // idempotent
}

func TestManyRegisters(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 4, func(p procset.ID) Algorithm {
		return func(env Env) {
			for i := 0; ; i++ {
				reg := env.Reg(fmt.Sprintf("R[%d,%d]", p, i%16))
				env.Write(reg, i)
			}
		}
	})
	src, err := sched.RoundRobin(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(src, 256, 0, nil)
	if got := r.Registers(); got != 64 {
		t.Errorf("Registers = %d, want 64", got)
	}
}

func TestStepPanicsOutOfRange(t *testing.T) {
	t.Parallel()
	r := newTestRunner(t, 2, func(procset.ID) Algorithm { return counterAlgo })
	defer func() {
		if recover() == nil {
			t.Error("Step(5) did not panic")
		}
	}()
	r.Step(5)
}

// BenchmarkStep is the engine's headline number: steps/sec of the coroutine
// path (two channel handoffs per step) versus the direct-dispatch Machine
// path (plain function calls), on the same 4-process counter automaton.
func BenchmarkStep(b *testing.B) {
	b.Run("coroutine", func(b *testing.B) {
		r, err := NewRunner(Config{N: 4, Algorithm: func(procset.ID) Algorithm { return counterAlgo }})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Step(procset.ID(i%4 + 1))
		}
	})
	b.Run("machine", func(b *testing.B) {
		r, err := NewRunner(Config{N: 4, Machine: counterMachine})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Step(procset.ID(i%4 + 1))
		}
	})
}

// BenchmarkRunnerReuse compares constructing a fresh runner per run against
// Reset-reusing one, in both execution modes (the campaign pool's win).
func BenchmarkRunnerReuse(b *testing.B) {
	const stepsPerRun = 64
	run := func(r *Runner) {
		for i := 0; i < stepsPerRun; i++ {
			r.Step(procset.ID(i%4 + 1))
		}
	}
	b.Run("fresh/coroutine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := NewRunner(Config{N: 4, Algorithm: func(procset.ID) Algorithm { return counterAlgo }})
			if err != nil {
				b.Fatal(err)
			}
			run(r)
			r.Close()
		}
	})
	b.Run("fresh/machine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := NewRunner(Config{N: 4, Machine: counterMachine})
			if err != nil {
				b.Fatal(err)
			}
			run(r)
			r.Close()
		}
	})
	b.Run("reset/machine", func(b *testing.B) {
		r, err := NewRunner(Config{N: 4, Machine: counterMachine})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Reset(); err != nil {
				b.Fatal(err)
			}
			run(r)
		}
	})
}
