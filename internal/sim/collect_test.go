package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// progOp is one instruction of a generated machine program: a read or a
// write of regs[0], or a collect of regs in order.
type progOp struct {
	kind OpKind // OpRead, OpWrite, or 0 for a collect
	regs []int
}

// progMachine runs its program in a loop, folding every value it reads into
// acc and writing acc, so a read value that landed wrong, or at the wrong
// step, changes the later writes. With expand set it issues each collect as
// its per-read expansion; otherwise as one CollectOp. With literal set its
// reads and writes are plain Op values with no resolved register, which the
// runner stores through settle rather than the kernel's inline path.
// passes > 0 halts the machine after that many passes over the program.
type progMachine struct {
	prog    []progOp
	refs    []Ref
	expand  bool
	literal bool
	passes  int

	collects []Op    // CollectOp per collect instruction (nil elsewhere)
	dsts     [][]any // their buffers
	buf      Op

	started bool
	pc      int // instruction in flight
	sub     int // read in flight within an expanded collect
	pass    int
	acc     int
}

func (m *progMachine) fold(v any) {
	x := 0
	if v != nil {
		x = v.(int)
	}
	m.acc = (m.acc*31 + x + 1) % 1_000_003
}

// read and write build the machine's read and write requests, resolved or
// literal.
func (m *progMachine) read(r Ref) Op {
	if m.literal {
		return Op{Kind: OpRead, Reg: r}
	}
	return ReadOp(r)
}

func (m *progMachine) write(r Ref, v any) Op {
	if m.literal {
		return Op{Kind: OpWrite, Reg: r, Value: v}
	}
	return WriteOp(r, v)
}

func (m *progMachine) NextOp(prev any) *Op {
	if m.started {
		switch in := m.prog[m.pc]; {
		case in.kind == OpRead:
			m.fold(prev)
		case in.kind == 0 && m.expand:
			m.fold(prev)
			if m.sub++; m.sub < len(in.regs) {
				m.buf = m.read(m.refs[in.regs[m.sub]])
				return &m.buf
			}
		case in.kind == 0:
			for _, v := range m.dsts[m.pc] {
				m.fold(v)
			}
		}
		if m.pc++; m.pc == len(m.prog) {
			m.pc = 0
			if m.pass++; m.passes > 0 && m.pass == m.passes {
				return nil
			}
		}
	}
	m.started = true
	switch in := m.prog[m.pc]; {
	case in.kind == OpRead:
		m.buf = m.read(m.refs[in.regs[0]])
	case in.kind == OpWrite:
		m.buf = m.write(m.refs[in.regs[0]], m.acc)
	case m.expand:
		m.sub = 0
		m.buf = m.read(m.refs[in.regs[0]])
	default:
		return &m.collects[m.pc]
	}
	return &m.buf
}

// collectCase is one decoded FuzzCollect input.
type collectCase struct {
	n, regs int
	progs   [][]progOp
	passes  []int
	literal bool
	sched   sched.Schedule
}

// byteReader hands out input bytes, then zeros.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// decodeCollectCase builds n ≤ 4 programs over up to 6 registers with
// collects of length 1..k (k ≤ 4) from prog, and a schedule from steps. A
// crash byte removes one process from the schedule after its j-th step,
// which with multi-read collects often lands mid-collect.
func decodeCollectCase(prog, steps []byte) collectCase {
	r := byteReader(prog)
	c := collectCase{n: 1 + r.next()%4, regs: 1 + r.next()%6}
	k := 1 + r.next()%4
	c.literal = r.next()%2 != 0
	for p := 0; p < c.n; p++ {
		ops := make([]progOp, 1+r.next()%5)
		for i := range ops {
			switch r.next() % 3 {
			case 0:
				ops[i] = progOp{kind: OpRead, regs: []int{r.next() % c.regs}}
			case 1:
				ops[i] = progOp{kind: OpWrite, regs: []int{r.next() % c.regs}}
			default:
				regs := make([]int, 1+r.next()%k)
				for j := range regs {
					regs[j] = r.next() % c.regs
				}
				ops[i] = progOp{regs: regs}
			}
		}
		c.progs = append(c.progs, ops)
		c.passes = append(c.passes, r.next()%4)
	}
	crash, after := procset.ID(1+r.next()%c.n), r.next()%16
	taken := 0
	for _, b := range steps {
		p := procset.ID(int(b)%c.n + 1)
		if p == crash {
			if taken == after {
				continue
			}
			taken++
		}
		c.sched = append(c.sched, p)
	}
	return c
}

// factory builds the case's machines, as collects or expanded.
func (c collectCase) factory(expand bool) func(procset.ID, Registry) Machine {
	return func(p procset.ID, regs Registry) Machine {
		m := &progMachine{prog: c.progs[p-1], expand: expand, literal: c.literal, passes: c.passes[p-1]}
		for i := 0; i < c.regs; i++ {
			m.refs = append(m.refs, regs.Reg(fmt.Sprintf("r%d", i)))
		}
		m.collects = make([]Op, len(m.prog))
		m.dsts = make([][]any, len(m.prog))
		for i, in := range m.prog {
			if in.kind == 0 {
				refs := make([]Ref, len(in.regs))
				for j, x := range in.regs {
					refs[j] = m.refs[x]
				}
				m.dsts[i] = make([]any, len(refs))
				m.collects[i] = CollectOp(refs, m.dsts[i])
			}
		}
		return m
	}
}

// collectOutcome is what one drive of a runner exposes.
type collectOutcome struct {
	infos    []StepInfo
	pending  [][2]int // (kind, reg) of every process, after every step
	writes   []writeEvent
	stats    Stats
	dump     string
	fp       runnerFingerprint
	regState []string
}

func (c collectCase) pendingOf(r *Runner) [][2]int {
	var out [][2]int
	for p := 1; p <= c.n; p++ {
		k, id := r.PendingOp(procset.ID(p))
		out = append(out, [2]int{int(k), int(id)})
	}
	return out
}

func (c collectCase) finish(r *Runner, o *collectOutcome) {
	o.stats = r.Stats()
	var sb strings.Builder
	r.FlightRecorder().Dump(&sb, r)
	o.dump = sb.String()
	o.fp = fingerprint(r, c.n)
	for id := 0; id < r.Registers(); id++ {
		o.regState = append(o.regState, fmt.Sprintf("%s:%d:%v", r.RegName(RegID(id)), r.RegWrites(RegID(id)), r.RegLastWriter(RegID(id))))
	}
	o.pending = append(o.pending, c.pendingOf(r)...)
}

// drive runs the case through one entry point on a fresh runner (or, with
// resetMid, on a runner Reset after running part of the schedule).
func (c collectCase) drive(t *testing.T, expand bool, entry string, resetMid bool) collectOutcome {
	t.Helper()
	var o collectOutcome
	cfg := Config{N: c.n, Machine: c.factory(expand)}
	if entry == "step" {
		cfg.Observer = func(info StepInfo) { o.infos = append(o.infos, info) }
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetFlightRecorder(NewFlightRecorder(24))
	if resetMid {
		r.RunSchedule(c.sched[:len(c.sched)/2])
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		o.infos = o.infos[:0]
		r.FlightRecorder().Reset()
	}
	record := func() bool {
		o.pending = append(o.pending, c.pendingOf(r)...)
		return false
	}
	switch entry {
	case "step":
		for _, p := range c.sched {
			r.Step(p)
			record()
		}
	case "run", "run-batched":
		src, err := sched.Replay(c.n, c.sched, c.sched)
		if err != nil {
			t.Fatal(err)
		}
		if entry == "run" {
			r.Run(src, len(c.sched), 1, record)
		} else {
			r.Run(src, len(c.sched), 0, nil)
		}
	case "schedule":
		r.RunSchedule(c.sched)
	case "directed":
		d := &replayDirector{s: c.sched}
		r.RunDirected(d, len(c.sched), 1, record)
		o.writes = d.writes
	}
	c.finish(r, &o)
	return o
}

// FuzzCollect pins CollectOp to its per-read expansion: machines whose
// programs mix reads, writes and collects of length 1..k must produce,
// against the same schedule, exactly what the same programs produce with
// every collect issued read by read — StepInfo streams on Step with an
// observer, PendingOp of every process after every step, OnWrite callbacks
// on RunDirected, Stats, the flight-recorder dump, the register plane's
// write counts and last writers, and the runner fingerprint — on Step, Run
// (per-step stop checks and batched), RunSchedule and RunDirected, on fresh
// runners and on runners Reset with collects in flight. The schedule
// crashes one process after a chosen step, often mid-collect. A mode byte
// makes the machines' reads and writes resolved ops (the kernel's inline
// path) or literal ones (settle's path). Its seed corpus is in
// testdata/fuzz/FuzzCollect.
func FuzzCollect(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, steps []byte) {
		if len(steps) > 600 {
			steps = steps[:600]
		}
		c := decodeCollectCase(prog, steps)
		if len(c.sched) == 0 {
			return
		}
		for _, entry := range []string{"step", "run", "run-batched", "schedule", "directed"} {
			for _, resetMid := range []bool{false, true} {
				label := fmt.Sprintf("%s reset=%v", entry, resetMid)
				want := c.drive(t, true, entry, resetMid)
				got := c.drive(t, false, entry, resetMid)
				compareCollect(t, label, got, want)
				if resetMid {
					compareCollect(t, label+" vs fresh", got, c.drive(t, false, entry, false))
				}
			}
		}
	})
}

func compareCollect(t *testing.T, label string, got, want collectOutcome) {
	t.Helper()
	if len(got.infos) != len(want.infos) {
		t.Fatalf("%s: %d StepInfos, expansion %d", label, len(got.infos), len(want.infos))
	}
	for i := range got.infos {
		if got.infos[i] != want.infos[i] {
			t.Fatalf("%s: step %d: %+v, expansion %+v", label, i, got.infos[i], want.infos[i])
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"PendingOp", got.pending, want.pending},
		{"writes", got.writes, want.writes},
		{"Stats", got.stats, want.stats},
		{"flight dump", got.dump, want.dump},
		{"fingerprint", got.fp, want.fp},
		{"register plane", got.regState, want.regState},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs:\n  %v\nexpansion:\n  %v", label, f.name, f.got, f.want)
		}
	}
}

// TestCollectOpContract: a collect lands each value at its own step (a
// write between two of its reads is seen by the later read only), calls
// the machine once after the last read, reports the register in flight
// through PendingOp, and rejects empty or mismatched buffers and foreign
// refs.
func TestCollectOpContract(t *testing.T) {
	t.Parallel()
	var dst [3]any
	calls := 0
	r, err := NewRunner(Config{N: 2, Machine: func(p procset.ID, regs Registry) Machine {
		a, b := regs.Reg("a"), regs.Reg("b")
		if p == 2 {
			write := WriteOp(b, 7)
			return MachineFunc(func(any) *Op { return &write })
		}
		coll := CollectOp([]Ref{a, b, b}, dst[:])
		return MachineFunc(func(prev any) *Op {
			calls++
			return &coll
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, step := range []struct {
		p       procset.ID
		pending RegID
	}{{1, 0}, {1, 1}, {2, 1}, {1, 1}, {1, 0}} {
		if _, id := r.PendingOp(step.p); id != step.pending {
			t.Fatalf("step %d: PendingOp(%v) = r%d, want r%d", i, step.p, id, step.pending)
		}
		r.Step(step.p)
	}
	if want := [3]any{nil, nil, 7}; dst != want {
		t.Errorf("dst = %v, want %v", dst, want)
	}
	if calls != 2 {
		t.Errorf("machine called %d times, want 2 (first activation, after the collect)", calls)
	}
	for _, c := range []struct {
		regs []Ref
		dst  []any
	}{{nil, nil}, {[]Ref{&register{name: "x"}}, make([]any, 2)}, {[]Ref{foreignRef{}}, make([]any, 1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CollectOp(%d regs, %d slots) did not panic", len(c.regs), len(c.dst))
				}
			}()
			CollectOp(c.regs, c.dst)
		}()
	}
}

// foreignRef is a Ref no runner's Registry hands out.
type foreignRef struct{}

func (foreignRef) Name() string { return "foreign" }
