package sim

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// traceOf runs cfg (plus a recording observer) over the schedule and returns
// the StepInfo stream.
func traceOf(t *testing.T, cfg Config, s sched.Schedule) []StepInfo {
	t.Helper()
	var trace []StepInfo
	cfg.Observer = func(info StepInfo) { trace = append(trace, info) }
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(s)
	return trace
}

func sameTrace(t *testing.T, label string, a, b []StepInfo) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: traces diverge at step %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestMachineMatchesCoroutine is the engine's core equivalence property: the
// same automaton in coroutine and direct-dispatch form produces bit-identical
// StepInfo streams on the same schedule.
func TestMachineMatchesCoroutine(t *testing.T) {
	t.Parallel()
	src, err := sched.Random(3, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 500)
	coro := traceOf(t, Config{N: 3, Algorithm: func(procset.ID) Algorithm { return counterAlgo }}, s)
	mach := traceOf(t, Config{N: 3, Machine: counterMachine}, s)
	sameTrace(t, "coroutine vs machine", coro, mach)
}

// haltingMachine writes its id once and halts.
func haltingMachine(p procset.ID, regs Registry) Machine {
	write := WriteOp(regs.Reg("x"), int(p))
	done := false
	return MachineFunc(func(prev any) *Op {
		if done {
			return nil
		}
		done = true
		return &write
	})
}

// TestMachineNilRegPanicsOnEveryEntryPoint pins that a read/write Op with
// a nil Reg is reported by the one machine-advance site, with the same
// panic, whichever entry point steps the machine. The bad Op is the
// machine's second request, so it is fetched by a step rather than by the
// first activation.
func TestMachineNilRegPanicsOnEveryEntryPoint(t *testing.T) {
	t.Parallel()
	const want = "sim: Machine returned an Op with nil Reg"
	entries := []struct {
		name string
		run  func(r *Runner)
	}{
		{"Step", func(r *Runner) { r.Step(1); r.Step(1) }},
		{"Run", func(r *Runner) {
			src, err := sched.RoundRobin(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Run(src, 2, 0, nil)
		}},
		{"RunSchedule", func(r *Runner) { r.RunSchedule(sched.Schedule{1, 1}) }},
		{"RunDirected", func(r *Runner) { r.RunDirected(roundRobinDirector{n: 1, next: new(int)}, 2, 0, nil) }},
	}
	for _, e := range entries {
		r, err := NewRunner(Config{N: 1, Machine: func(_ procset.ID, regs Registry) Machine {
			ops := []Op{ReadOp(regs.Reg("x")), {Kind: OpRead}}
			return MachineFunc(func(prev any) *Op {
				op := &ops[0]
				ops = ops[1:]
				return op
			})
		}})
		if err != nil {
			t.Fatal(err)
		}
		got := func() (msg any) {
			defer func() { msg = recover() }()
			e.run(r)
			return nil
		}()
		r.Close()
		if got != want {
			t.Errorf("%s panicked with %v, want %q", e.name, got, want)
		}
	}
}

// literalOps serves the machines mk builds with every request copied into
// a literal Op, which carries no resolved register: reads and writes then
// reach settle instead of the kernel's inline stores.
func literalOps(mk func(procset.ID, Registry) Machine) func(procset.ID, Registry) Machine {
	return func(p procset.ID, regs Registry) Machine {
		m := mk(p, regs)
		var buf Op
		return MachineFunc(func(prev any) *Op {
			op := m.NextOp(prev)
			if op == nil {
				return nil
			}
			buf = Op{Kind: op.Kind, Reg: op.Reg, Value: op.Value, Dest: op.Dest}
			return &buf
		})
	}
}

// TestMachineResolvedMatchesLiteral: the kernel's inline advance of
// resolved ops (ReadOp and WriteOp requests, recvs, halts) and settle's
// path for the same requests as literal Ops produce the same StepInfo
// stream.
func TestMachineResolvedMatchesLiteral(t *testing.T) {
	t.Parallel()
	const n = 4
	src, err := sched.Random(n, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 900)
	for _, c := range []struct {
		name string
		cfg  func(mk func(procset.ID, Registry) Machine) Config
		mk   func(procset.ID, Registry) Machine
	}{
		{"counter", func(mk func(procset.ID, Registry) Machine) Config { return Config{N: n, Machine: mk} }, counterMachine},
		{"halting", func(mk func(procset.ID, Registry) Machine) Config { return Config{N: n, Machine: mk} }, haltingCounter(10)},
		{"sendrecv", func(mk func(procset.ID, Registry) Machine) Config {
			return Config{N: n, Machine: mk, Network: newRingNet(n)}
		}, ringMachine(n)},
	} {
		sameTrace(t, c.name, traceOf(t, c.cfg(c.mk), s), traceOf(t, c.cfg(literalOps(c.mk)), s))
	}
}

// TestSettleChecksEveryRequest: a bad request panics with settle's message
// whether it is the first request (fetched at first activation) or a later
// one (fetched by the kernel's advance, which hands it to settle), and for
// a later one whether the request before it was resolved (stored inline)
// or literal (stored by settle).
func TestSettleChecksEveryRequest(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name    string
		op      Op
		network bool
		want    string
	}{
		{"nil Reg", Op{Kind: OpWrite}, false, "sim: Machine returned an Op with nil Reg"},
		{"send outside", SendOp(3, nil), true, "sim: send destination p3 outside Π2"},
		{"send to self", SendOp(1, nil), true, "sim: p1 sends to itself"},
		{"send without network", SendOp(2, nil), false, "sim: send op on a runner without Config.Network"},
		{"recv without network", RecvOp(), false, "sim: recv op on a runner without Config.Network"},
		{"unknown kind", Op{Kind: OpNoop}, true, badOpKind(OpNoop)},
	} {
		for _, first := range []string{"", "resolved", "literal"} {
			cfg := Config{N: 2, Machine: func(_ procset.ID, regs Registry) Machine {
				ops := []Op{c.op}
				switch first {
				case "resolved":
					ops = []Op{ReadOp(regs.Reg("x")), c.op}
				case "literal":
					ops = []Op{{Kind: OpRead, Reg: regs.Reg("x")}, c.op}
				}
				return MachineFunc(func(any) *Op {
					op := &ops[0]
					ops = ops[1:]
					return op
				})
			}}
			if c.network {
				cfg.Network = newRingNet(2)
			}
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := func() (msg any) {
				defer func() { msg = recover() }()
				r.RunSchedule(sched.Schedule{1, 1})
				return nil
			}()
			r.Close()
			if got != c.want {
				t.Errorf("%s (after %q) panicked with %v, want %q", c.name, first, got, c.want)
			}
		}
	}
}

func TestMachineHaltsToNoop(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Step(1)
	if info.Kind != OpWrite || info.Value != 1 {
		t.Fatalf("first step = %+v", info)
	}
	info = r.Step(1)
	if info.Kind != OpNoop {
		t.Fatalf("second step = %+v, want noop", info)
	}
	if !r.Halted(1) {
		t.Error("Halted = false after machine finished")
	}
	if r.StepsTaken(1) != 1 {
		t.Errorf("StepsTaken = %d, want 1 (noop steps do not count)", r.StepsTaken(1))
	}
}

func TestMachineImmediateHaltIsNoop(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: func(procset.ID, Registry) Machine {
		return MachineFunc(func(any) *Op { return nil })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info := r.Step(1); info.Kind != OpNoop {
		t.Fatalf("step of immediately-halting machine = %+v, want noop", info)
	}
	if r.StepsTaken(1) != 0 {
		t.Errorf("StepsTaken = %d, want 0", r.StepsTaken(1))
	}
}

// TestMachineFirstNextReceivesNil pins the NextOp contract: nil before any
// operation, the read value after reads, nil after writes.
func TestMachineFirstNextReceivesNil(t *testing.T) {
	t.Parallel()
	var got []any
	r, err := NewRunner(Config{N: 1, Machine: func(_ procset.ID, regs Registry) Machine {
		x := regs.Reg("x")
		pc := 0
		var opBuf Op
		return MachineFunc(func(prev any) *Op {
			got = append(got, prev)
			switch pc {
			case 0:
				pc++
				opBuf = WriteOp(x, "v")
				return &opBuf
			case 1:
				pc++
				opBuf = ReadOp(x)
				return &opBuf
			default:
				return nil
			}
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1})
	want := []any{nil, nil, "v"}
	if len(got) != len(want) {
		t.Fatalf("NextOp called %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NextOp call %d received %v, want %v", i, got[i], want[i])
		}
	}
}

// TestResetDeterminism is the pooling contract: a Reset runner replays the
// exact StepInfo stream of a fresh one, in both execution modes.
func TestResetDeterminism(t *testing.T) {
	t.Parallel()
	src, err := sched.Random(3, 41, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Take(src, 400)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"machine", Config{N: 3, Machine: counterMachine}},
		{"coroutine", Config{N: 3, Algorithm: func(procset.ID) Algorithm { return counterAlgo }}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			fresh := traceOf(t, mode.cfg, s)

			var trace []StepInfo
			cfg := mode.cfg
			cfg.Observer = func(info StepInfo) { trace = append(trace, info) }
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for round := 0; round < 3; round++ {
				trace = trace[:0]
				if err := r.Reset(); err != nil {
					t.Fatal(err)
				}
				if r.Steps() != 0 {
					t.Fatalf("round %d: Steps = %d after Reset", round, r.Steps())
				}
				r.RunSchedule(s)
				reused := append([]StepInfo(nil), trace...)
				sameTrace(t, "fresh vs reset", fresh, reused)
			}
		})
	}
}

// TestResetRevivesHaltedProcesses covers reuse of runs whose automata
// terminate (the explorer's one-shot protocols).
func TestResetRevivesHaltedProcesses(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 2; round++ {
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		for _, p := range []procset.ID{1, 2} {
			if r.Halted(p) {
				t.Fatalf("round %d: %v halted right after Reset", round, p)
			}
		}
		r.RunSchedule(sched.Schedule{1, 2, 1, 2})
		if got := r.mem.read(r.mem.reg("x")); got != 2 {
			t.Fatalf("round %d: x = %v, want 2", round, got)
		}
		if !r.Halted(1) || !r.Halted(2) {
			t.Fatalf("round %d: processes not halted after their writes", round)
		}
	}
}

// TestResetClearsRegisterValues pins the interning semantics: the register
// set survives Reset, values do not.
func TestResetClearsRegisterValues(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1, 1, 1})
	if got := r.mem.read(r.mem.reg("counter")); got != 2 {
		t.Fatalf("counter = %v before Reset, want 2", got)
	}
	regs := r.Registers()
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := r.mem.read(r.mem.reg("counter")); got != nil {
		t.Errorf("counter = %v after Reset, want nil", got)
	}
	if r.Registers() != regs {
		t.Errorf("Registers = %d after Reset, want %d (interned set survives)", r.Registers(), regs)
	}
}

func TestMachineRunnerStopPredicate(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := sched.RoundRobin(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(src, 1000, 0, func() bool { return r.Steps() >= 7 })
	if !res.Stopped || res.Steps != 7 {
		t.Errorf("Run = %+v, want stopped at 7", res)
	}
}

// TestRegisterPlaneMetadata checks the dense-plane accessors: machine-mode
// runners count writes and track the last writer per register; coroutine
// runners (boxed plane) report zero values; Reset clears the metadata.
func TestRegisterPlaneMetadata(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: counterMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1, 1, 2, 2, 2})
	id := r.mem.idOf("counter")
	// counterMachine alternates read/write, so 3 steps per process = 1 write
	// each plus the in-flight ones; just check the invariants rather than the
	// exact automaton shape.
	if got := r.RegWrites(id); got == 0 {
		t.Errorf("RegWrites = 0 after writes, want > 0")
	}
	if got := r.RegLastWriter(id); got != 2 {
		t.Errorf("RegLastWriter = %v, want 2 (last scheduled writer)", got)
	}
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := r.RegWrites(id); got != 0 {
		t.Errorf("RegWrites = %d after Reset, want 0", got)
	}
	if got := r.RegLastWriter(id); got != 0 {
		t.Errorf("RegLastWriter = %v after Reset, want 0", got)
	}
}

// TestRegisterPlaneCoroutineZero: the dense plane exists only in machine
// mode; the accessors degrade to zero values on coroutine runners.
func TestRegisterPlaneCoroutineZero(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 1, Algorithm: func(procset.ID) Algorithm { return counterAlgo }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunSchedule(sched.Schedule{1, 1, 1, 1})
	id := r.mem.idOf("counter")
	if got := r.RegWrites(id); got != 0 {
		t.Errorf("coroutine RegWrites = %d, want 0", got)
	}
	if got := r.RegLastWriter(id); got != 0 {
		t.Errorf("coroutine RegLastWriter = %v, want 0", got)
	}
}
