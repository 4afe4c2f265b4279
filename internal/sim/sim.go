// Package sim is a deterministic simulator for the read/write shared-memory
// model of the paper (§2.2–2.3): an algorithm is a set of n deterministic
// automata; a run is driven by a schedule (a sequence of process ids); in
// each of its steps a process reads or writes one shared register and
// updates its local state; local computation is free.
//
// Processes come in two interchangeable forms:
//
//   - Algorithm: ordinary Go functions against the Env interface. Each
//     process runs as a coroutine: every Read or Write blocks until the
//     runner grants a step according to the schedule, the runner performs
//     the memory operation centrally, and the process then computes locally
//     until it posts its next operation. The runner waits for that next
//     posting (or for process termination) before returning from Step.
//
//   - Machine: an explicit automaton (see machine.go) that, given the
//     result of its previous operation, returns its next request. The
//     runner executes machines by direct dispatch — plain function calls,
//     no goroutine, no channel — which is an order of magnitude faster per
//     step and is the path the campaign engine uses for hot algorithms.
//
// In both modes at most one process executes at any instant once stepping
// begins, runs are bit-for-bit reproducible, and the harness may safely
// inspect any state the algorithm shares with it between Step calls.
//
// One caveat follows from the coroutines' lazy start: algorithm code that
// runs before the process's first Read or Write (its initialization)
// executes concurrently with other processes' steps. Initialization may
// create registers (Env.Reg is thread-safe) and build local state, but must
// not touch state shared with the harness or with other processes; perform
// one register operation first if such access is needed. Machine factories
// have no such caveat: they run sequentially on the constructing goroutine.
//
// Crashes are represented exactly as in the paper: a schedule simply stops
// containing the process. Scheduling a process whose function has returned
// is a no-op step.
package sim

import (
	"fmt"
	"sync"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// Ref is an opaque handle to a shared register. Obtain handles with Env.Reg
// or Registry.Reg; handles are shared across processes by name.
type Ref interface {
	// Name returns the register's name.
	Name() string
}

// Env is the programming interface coroutine algorithms run against. Reg
// does not cost a step (naming registers is part of the automaton's
// structure); Read and Write cost exactly one step each and block until the
// schedule grants it.
//
// Both the deterministic runtime in this package and the real-time runtime
// in internal/live implement Env, so algorithm code runs unmodified on both.
type Env interface {
	// Self returns the identifier of the executing process (1..n).
	Self() procset.ID
	// N returns the system size.
	N() int
	// Reg returns the shared register with the given name, creating it with
	// initial value nil if needed.
	Reg(name string) Ref
	// Read returns the current value of the register; nil if never written.
	Read(r Ref) any
	// Write stores v in the register. Values must be treated as immutable
	// once written.
	Write(r Ref, v any)
}

// Algorithm is the code run by one process. The function may return (the
// automaton halts) or loop forever; returning is not a crash.
type Algorithm func(env Env)

// OpKind classifies what happened during a step.
type OpKind int

// Step kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	// OpNoop is a step granted to a process whose automaton has halted.
	OpNoop
	// OpSend hands one message to the attached Network (see net.go),
	// addressed to Op.Dest. Machine-mode runners with Config.Network only.
	OpSend
	// OpRecv asks the attached Network for the next deliverable message; the
	// automaton's next prev is a *Message, or nil when nothing was ready.
	OpRecv
)

// String returns a short name for the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpNoop:
		return "noop"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

func badOpKind(k OpKind) string {
	return fmt.Sprintf("sim: unknown op kind %v", k)
}

// StepInfo describes one executed step, delivered to observers.
type StepInfo struct {
	// Index is the 0-based position of the step in the run's schedule.
	Index int
	// Proc is the process that took the step.
	Proc procset.ID
	// Kind says whether the step read, wrote, or was a no-op.
	Kind OpKind
	// Reg is the register name for read/write steps.
	Reg string
	// Value is the value read or written; for send steps the payload sent,
	// for recv steps the payload delivered (nil when nothing was ready).
	Value any
	// Peer is the other endpoint of a message step: the destination for
	// OpSend, the sender for a delivering OpRecv, 0 otherwise.
	Peer procset.ID
	// Fault is the fault class the process was tagged with (see
	// Runner.SetFaultClass); FaultHonest on untagged runners, so streams
	// from fault-free runs are unchanged by the field's existence.
	Fault FaultClass
}

type opRequest struct {
	kind  OpKind
	reg   *register
	value any // value to write for OpWrite
}

// RegID is the dense identifier of an interned register: slot i holds the
// i-th register interned by the runner's memory, so consumers can attach
// per-register metadata in a plain slice instead of a name-keyed map (the
// directed-run observers do exactly that; see consensus.Table). Identifiers
// are stable for the lifetime of the runner, including across Reset. In
// machine mode the interning order is the (deterministic) construction
// order; in coroutine mode processes intern concurrently during their
// initialization, so ids are stable within a runner but not across runners.
//
// In machine mode the id is also the index into the memory's
// struct-of-arrays register plane: values, write-sequence counters, and
// last-writer metadata live in dense parallel arrays rather than in the
// register objects, so the stepping loops and the snapshot scan chain walk
// contiguous memory instead of pointer-chasing interned slot objects.
type RegID int

// register is one interned shared register handle. In coroutine mode it also
// carries the register's value (touched only by the stepping goroutine —
// processes go through the runner for every memory operation — so value
// access is lock-free). In machine mode values live in the memory's dense
// value array instead (see memory.values) and the boxed field stays nil.
type register struct {
	name  string
	id    RegID
	value any
}

func (r *register) Name() string { return r.name }

// Recycler is runner-scoped state that vends reusable objects to machines
// (arenas, lease pools). ResetRecycler is invoked by Runner.Reset after
// register values are cleared and before the machines are rearmed or
// rebuilt: at that point no machine may use any vended object again (a
// rearmed machine drops what it held), so the recycler may reclaim
// everything it ever handed out in bulk — including objects that were held
// by crashed processes or by scans a mid-run stop left in flight.
type Recycler interface {
	ResetRecycler()
}

// RecyclerHost is implemented by the Registry a machine factory receives
// when the runner permits value recycling. Machines that can reuse the
// memory behind values they write (see internal/snapshot's arena) obtain
// their runner-scoped recycler through it; on runners where it is absent or
// returns nil they fall back to allocating per write.
type RecyclerHost interface {
	// Recycler returns the runner-scoped shared value under key, building it
	// with create on first use. It returns nil when value recycling is
	// disabled for this runner — an observer is attached, and observers may
	// retain written values beyond the model's reuse horizon.
	Recycler(key any, create func() any) any

	// TakeValue removes and returns a register's current value without
	// costing a step: the memory-plane free() of the simulated world's
	// infinite register space. The caller must own the knowledge that the
	// register is dead under its current use — no automaton will read or
	// write it again before it is deliberately reused as a fresh register
	// (a reset register reads as nil, indistinguishable from one never
	// written). The BG simulation recycles the register groups of dead safe
	// agreement objects this way. Stepping-goroutine only; panics when the
	// runner does not permit recycling.
	TakeValue(r Ref) any
}

// memory is the shared register namespace. Registers are interned: each
// name maps to one slot for the lifetime of the runner, including across
// Reset (values revert to nil; a nil-valued register is indistinguishable
// from an absent one, since reads of unwritten registers return nil).
//
// The mutex guards interning only — coroutine processes may create
// registers concurrently during their initialization phase (before their
// first step). The stepping path never takes it: register values are plain
// fields accessed only by the stepping goroutine, and the register pointers
// it dereferences arrive over the processes' request channels (coroutine
// mode) or were created sequentially at construction (machine mode), so the
// necessary happens-before edges exist without a lock.
type memory struct {
	mu     sync.Mutex
	byName map[string]*register
	slots  []*register

	// The struct-of-arrays register plane, machine mode only: parallel dense
	// arrays indexed by RegID. values[id] is the register's current value;
	// writeSeqs[id] counts write steps since construction or the last Reset;
	// lastWriter[id] is the most recent writer (0 = never written). Machine
	// mode interns only on the stepping/constructing goroutine (factories,
	// mid-run Rebind), so the arrays may grow between steps without a lock;
	// coroutine mode interns concurrently during process initialization and
	// therefore keeps values boxed in the register objects — a growable dense
	// array would race with the stepping goroutine there.
	dense      bool
	values     []any
	writeSeqs  []uint32
	lastWriter []procset.ID

	// cache is the runner-scoped keyed store behind both Recycler (mutable
	// recycling state, gated by recycleOK) and Layout (immutable machine
	// layouts, ungated; see layout.go). It survives Reset. recycleOK is set
	// once at construction (machine mode, no observer) and never changed.
	// The cache is only touched from machine factories and the stepping
	// path, both serial, so no lock is needed.
	recycleOK bool
	cache     map[any]any
}

func newMemory(dense bool) *memory {
	return &memory{byName: make(map[string]*register), dense: dense}
}

// Recycler implements RecyclerHost for machine factories.
func (m *memory) Recycler(key any, create func() any) any {
	if !m.recycleOK {
		return nil
	}
	v, ok := m.cache[key]
	if !ok {
		v = create()
		m.store(key, v)
	}
	return v
}

// store enters v under key in the runner-scoped cache.
func (m *memory) store(key, v any) {
	if m.cache == nil {
		m.cache = make(map[any]any)
	}
	m.cache[key] = v
}

// TakeValue implements RecyclerHost. Stepping-goroutine only: register
// values are owned by the stepping path. Recycling implies machine mode, so
// the value lives in the dense plane.
func (m *memory) TakeValue(r Ref) any {
	if !m.recycleOK {
		panic("sim: TakeValue on a runner that does not permit recycling")
	}
	id := mustRegister(r).id
	v := m.values[id]
	m.values[id] = nil
	return v
}

// resetRecyclers bulk-resets every runner-scoped recycler. Reset-path only.
func (m *memory) resetRecyclers() {
	for _, v := range m.cache {
		if r, ok := v.(Recycler); ok {
			r.ResetRecycler()
		}
	}
}

// Reg implements Registry for machine factories.
func (m *memory) Reg(name string) Ref { return m.reg(name) }

func (m *memory) reg(name string) *register {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.byName[name]
	if !ok {
		r = &register{name: name, id: RegID(len(m.slots))}
		m.byName[name] = r
		m.slots = append(m.slots, r)
		if m.dense {
			m.values = append(m.values, nil)
			m.writeSeqs = append(m.writeSeqs, 0)
			m.lastWriter = append(m.lastWriter, 0)
		}
	}
	return r
}

// nameOf returns the name of the interned register with the given id.
func (m *memory) nameOf(id RegID) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || int(id) >= len(m.slots) {
		panic(fmt.Sprintf("sim: register id %d out of range [0,%d)", id, len(m.slots)))
	}
	return m.slots[id].name
}

// idOf returns the id of the interned register with the given name.
func (m *memory) idOf(name string) RegID {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.byName[name]
	if !ok {
		panic(fmt.Sprintf("sim: register %q was never interned", name))
	}
	return r.id
}

// read returns the register's current value, on whichever plane the runner
// keeps it. Stepping-goroutine only. The machine-mode hot loops index the
// dense arrays directly instead of calling this.
func (m *memory) read(r *register) any {
	if m.dense {
		return m.values[r.id]
	}
	return r.value
}

// write stores v in the register. Stepping-goroutine only; the machine-mode
// hot loops store into the dense arrays directly instead of calling this.
func (m *memory) write(r *register, v any) {
	if m.dense {
		m.values[r.id] = v
		return
	}
	r.value = v
}

// size returns the number of interned registers (diagnostics).
func (m *memory) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slots)
}

// resetValues reverts every interned register to the unwritten state. It
// must only run while no process goroutine is live (Reset guarantees this),
// but takes the lock anyway — it is far from the stepping path.
func (m *memory) resetValues() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.slots {
		r.value = nil
	}
	clear(m.values)
	clear(m.writeSeqs)
	clear(m.lastWriter)
}

var errKilled = fmt.Errorf("sim: runner closed")

// proc is the runner-side state of one process. The coroutine fields are
// used when the runner was built with Config.Algorithm, the machine fields
// with Config.Machine.
type proc struct {
	id        procset.ID
	isHalted  bool
	stepCount int
	// fault is the introspection tag of fault.go: set by directors that
	// crash or corrupt the process, cleared by Reset, consulted by nothing
	// on the stepping paths.
	fault FaultClass

	// Coroutine mode.
	req    chan opRequest
	resp   chan any
	halted chan struct{} // closed when the algorithm function returns
	// pending holds a request already received from the process but not yet
	// executed; it is owned by the runner goroutine.
	pending *opRequest

	// Machine (direct-dispatch) mode. The pending request is held in
	// resolved form — kind, register id, write value — so the hot
	// loops neither copy an Op struct per step nor repeat the Ref type
	// assertion (valid when started && !isHalted). ptrMachine is machine's
	// PtrMachine form when it implements one, resolved once at start; the
	// stepping loops prefer it.
	machine    Machine
	ptrMachine PtrMachine
	nextKind   OpKind
	nextRegID  RegID // the register's dense id, resolved once so the hot loops index the dense plane without a pointer chase
	nextValue  any
	nextDest   procset.ID // destination of a pending OpSend
	started    bool       // whether the machine's first request has been fetched
	// coll is the collect in flight (nil when none) and collPos the index
	// of its pending read; nextRegID names that read's register.
	coll    *collect
	collPos int
}

// procEnv implements Env for one coroutine process.
type procEnv struct {
	runner *Runner
	proc   *proc
}

func (e *procEnv) Self() procset.ID { return e.proc.id }
func (e *procEnv) N() int           { return e.runner.n }

func (e *procEnv) Reg(name string) Ref { return e.runner.mem.reg(name) }

func (e *procEnv) Read(r Ref) any {
	return e.do(opRequest{kind: OpRead, reg: mustRegister(r)})
}

func (e *procEnv) Write(r Ref, v any) {
	e.do(opRequest{kind: OpWrite, reg: mustRegister(r), value: v})
}

func mustRegister(r Ref) *register {
	reg, ok := r.(*register)
	if !ok {
		panic(fmt.Sprintf("sim: foreign Ref %T passed to simulator env", r))
	}
	return reg
}

func (e *procEnv) do(req opRequest) any {
	select {
	case e.proc.req <- req:
	case <-e.runner.kill:
		panic(errKilled)
	}
	select {
	case v := <-e.proc.resp:
		return v
	case <-e.runner.kill:
		panic(errKilled)
	}
}

// Runner drives an algorithm through explicit schedules.
type Runner struct {
	n     int
	mem   *memory
	procs []*proc
	kill  chan struct{}
	wg    sync.WaitGroup

	// Factories retained for Reset.
	algorithm func(procset.ID) Algorithm
	machine   func(procset.ID, Registry) Machine

	// net is the attached message substrate (nil on register-only runners);
	// see net.go. Machine mode only.
	net Network

	observer func(StepInfo)
	steps    int
	closed   bool

	// Observability plane (stats.go, flight.go): plain step counters and the
	// off-by-default last-K-steps ring. Neither influences a single
	// scheduling or memory decision.
	stats  statCounters
	flight *FlightRecorder

	// batchBuf is Run's schedule prefetch buffer (see batch.go); kept on the
	// runner so the batched loop allocates nothing per call.
	batchBuf [batchBlock]procset.ID
}

// Config configures a Runner. Exactly one of Algorithm and Machine must be
// set; they select the coroutine and the direct-dispatch execution mode
// respectively.
type Config struct {
	// N is the system size (1..procset.MaxProcs).
	N int
	// Algorithm returns the coroutine code for each process. It is called
	// once per process id at construction (and again on Reset).
	Algorithm func(p procset.ID) Algorithm
	// Machine returns the direct-dispatch automaton for each process. The
	// factory is called once per process id at construction, sequentially
	// on the constructing goroutine. Reset calls it again only for a
	// machine that does not implement Rearmer; a Rearmer is rearmed in
	// place instead, so on a pooled runner of such machines the factory
	// runs once per process for the runner's lifetime. regs interns the
	// machine's registers; immutable construction products (refs, op
	// tables, names) belong in the runner's layout cache (see Layout).
	Machine func(p procset.ID, regs Registry) Machine
	// Network, if non-nil, attaches a message substrate: machines may then
	// request OpSend/OpRecv steps (see net.go and SendOp/RecvOp). Machine
	// mode only — the coroutine Env has no message verbs, so NewRunner
	// rejects a Network on an Algorithm runner.
	Network Network
	// Observer, if non-nil, is invoked synchronously after every executed
	// step, including no-op steps of halted processes.
	Observer func(StepInfo)
	// NoRecycle disables value recycling even on observer-free machine
	// runners. A WriteMutator director (see directed.go) may replay a
	// register's previous value or retain an honest value as a future
	// corruption payload — both extend a written value's life beyond the
	// arena reuse horizon, exactly the hazard observers pose — so
	// mutator-equipped rigs must set it (RunDirected enforces this).
	// Honest rigs leave it false and keep the 0 allocs/op write path.
	NoRecycle bool
}

// NewRunner builds a runner ready for stepping. In coroutine mode it starts
// the per-process goroutines; in machine mode it invokes the machine
// factories sequentially. Callers must call Close to release any
// coroutines.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.N < 1 || cfg.N > procset.MaxProcs {
		return nil, fmt.Errorf("sim: n = %d out of range [1,%d]", cfg.N, procset.MaxProcs)
	}
	if (cfg.Algorithm == nil) == (cfg.Machine == nil) {
		return nil, fmt.Errorf("sim: exactly one of Config.Algorithm and Config.Machine is required")
	}
	if cfg.Network != nil && cfg.Machine == nil {
		return nil, fmt.Errorf("sim: Config.Network requires a direct-dispatch (Machine) runner")
	}
	r := &Runner{
		n:         cfg.N,
		mem:       newMemory(cfg.Machine != nil),
		procs:     make([]*proc, cfg.N),
		kill:      make(chan struct{}),
		algorithm: cfg.Algorithm,
		machine:   cfg.Machine,
		net:       cfg.Network,
		observer:  cfg.Observer,
	}
	// Value recycling is sound only when nothing can retain a written value
	// beyond the model's reuse horizon: an observer receives every written
	// value in its StepInfo and may legitimately keep it (the equivalence
	// tests do), so observed runners stay on the allocate-per-write path.
	// Coroutine runners do too — the reference implementations are kept
	// allocation-exact.
	r.mem.recycleOK = cfg.Machine != nil && cfg.Observer == nil && !cfg.NoRecycle
	for i := 0; i < cfg.N; i++ {
		p := &proc{id: procset.ID(i + 1)}
		r.procs[i] = p
		if err := r.start(p); err != nil {
			close(r.kill)
			r.wg.Wait()
			return nil, err
		}
	}
	return r, nil
}

// start (re)initializes one process from its factory: machine mode builds
// the automaton in place; coroutine mode spawns the process goroutine.
func (r *Runner) start(p *proc) error {
	if r.machine != nil {
		m := r.machine(p.id, r.mem)
		if m == nil {
			return fmt.Errorf("sim: Config.Machine returned nil for %v", p.id)
		}
		p.machine = m
		p.ptrMachine, _ = m.(PtrMachine)
		return nil
	}
	algo := r.algorithm(p.id)
	if algo == nil {
		return fmt.Errorf("sim: Config.Algorithm returned nil for %v", p.id)
	}
	p.req = make(chan opRequest)
	p.resp = make(chan any)
	p.halted = make(chan struct{})
	env := &procEnv{runner: r, proc: p}
	halted := p.halted
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(halted)
		defer func() {
			// Unwind cleanly when the runner shuts the simulation down.
			if rec := recover(); rec != nil && rec != errKilled {
				panic(rec)
			}
		}()
		algo(env)
	}()
	return nil
}

// Steps returns the number of steps executed so far.
func (r *Runner) Steps() int { return r.steps }

// Network returns the attached message substrate, or nil.
func (r *Runner) Network() Network { return r.net }

// Registers returns the number of shared registers interned so far. Interned
// registers survive Reset (with values reverted to nil), so on a reused
// runner this may exceed the count a fresh run would have created.
func (r *Runner) Registers() int { return r.mem.size() }

// RegName returns the name of the interned register with the given dense id
// (0 ≤ id < Registers()). Directed-run observers use it to build per-slot
// metadata tables once instead of parsing names per step.
func (r *Runner) RegName(id RegID) string { return r.mem.nameOf(id) }

// RegWrites returns the number of write steps the register with the given
// dense id has received since construction or the last Reset — the
// write-sequence counter of the struct-of-arrays register plane. Machine
// mode only; coroutine runners keep no dense plane and report 0.
func (r *Runner) RegWrites(id RegID) uint32 {
	if !r.mem.dense {
		return 0
	}
	return r.mem.writeSeqs[id]
}

// RegLastWriter returns the process that last wrote the register with the
// given dense id (0 if it was never written since construction or the last
// Reset). Machine mode only; coroutine runners keep no dense plane and
// report 0.
func (r *Runner) RegLastWriter(id RegID) procset.ID {
	if !r.mem.dense {
		return 0
	}
	return r.mem.lastWriter[id]
}

// Halted reports whether the process's automaton has halted.
func (r *Runner) Halted(p procset.ID) bool {
	return r.procAt(p).isHalted
}

// StepsTaken returns the number of steps the process has taken.
func (r *Runner) StepsTaken(p procset.ID) int { return r.procAt(p).stepCount }

// procAt returns process p's state. The out-of-range panic is raised out of
// line, which keeps procAt within the inlining budget: the step kernel pays
// no call for it.
func (r *Runner) procAt(p procset.ID) *proc {
	if uint(p-1) >= uint(len(r.procs)) {
		r.outside(p)
	}
	return r.procs[p-1]
}

//go:noinline
func (r *Runner) outside(p procset.ID) {
	panic(fmt.Sprintf("sim: process %v outside Π%d", p, r.n))
}

// Step executes one step of process p: the process's pending memory
// operation is performed, and the process then computes locally until it
// produces its next operation or halts (for coroutines the runner waits for
// the posting; for machines this is one Next call). When the process has
// already halted, the step is a no-op. Step must not be called after Close.
func (r *Runner) Step(p procset.ID) StepInfo {
	if r.closed {
		panic("sim: Step after Close")
	}
	pr := r.procAt(p)
	info := StepInfo{Index: r.steps, Proc: p, Fault: pr.fault}
	if r.machine != nil {
		var res stepResult
		r.exec(1, []procset.ID{p}, nil, &res)
		info.Kind, info.Value, info.Peer = res.kind, res.v, res.peer
		if res.id >= 0 {
			info.Reg = r.mem.slots[res.id].name
		}
	} else {
		r.steps++
		r.stepCoroutine(pr, &info)
	}
	r.observe(&info)
	return info
}

// stepCoroutine executes one step of a coroutine process over its request/
// response channels.
func (r *Runner) stepCoroutine(pr *proc, info *StepInfo) {
	if !r.fetchPending(pr) {
		info.Kind = OpNoop
		r.recordStep(info.Index, pr.id, OpNoop, -1)
		return
	}
	req := *pr.pending
	pr.pending = nil
	pr.stepCount++
	r.recordStep(info.Index, pr.id, req.kind, req.reg.id)
	switch req.kind {
	case OpRead:
		v := r.mem.read(req.reg)
		info.Kind, info.Reg, info.Value = OpRead, req.reg.name, v
		pr.resp <- v
	case OpWrite:
		r.mem.write(req.reg, req.value)
		info.Kind, info.Reg, info.Value = OpWrite, req.reg.name, req.value
		pr.resp <- nil
	default:
		panic(badOpKind(req.kind))
	}
	// Park barrier: wait until the process has finished the local
	// computation that follows the operation, i.e. until it posts its next
	// operation or its function returns. This keeps execution serial and
	// lets the harness inspect shared state safely between steps.
	r.fetchPending(pr)
}

// fetchPending ensures pr.pending holds the process's next request, blocking
// until the process posts one or halts. It reports false when the process
// has halted with no pending request.
func (r *Runner) fetchPending(pr *proc) bool {
	if pr.isHalted {
		return false
	}
	if pr.pending != nil {
		return true
	}
	select {
	case req := <-pr.req:
		pr.pending = &req
		return true
	case <-pr.halted:
		// Drain a request that may have been posted concurrently with the
		// halt of a different code path; channels are unbuffered so a halted
		// process cannot have one in flight, but keep the check defensive.
		pr.isHalted = true
		return false
	}
}

func (r *Runner) observe(info *StepInfo) {
	if r.observer != nil {
		r.observer(*info)
	}
}

// Reset returns the runner to its initial state so it can be reused for
// another run without paying construction costs again: step counters
// revert to zero, every register value reverts to nil (the interned
// register set survives — an unwritten register reads as nil either way),
// recyclers reclaim what they vended, and every process restarts. In
// machine mode a machine that implements Rearmer is rearmed in place, in
// process order, after the recyclers reset; any other machine is rebuilt by
// its factory, which takes its immutable products from the runner's layout
// cache (see Layout). In coroutine mode the old process goroutines are
// killed and fresh ones spawned.
//
// A reset runner produces bit-identical StepInfo streams to a freshly
// constructed one with the same Config — the property the campaign engine's
// runner pool relies on. Reset must not be called after Close, and, like
// Step, must not race with it.
func (r *Runner) Reset() error {
	if r.closed {
		panic("sim: Reset after Close")
	}
	if r.machine == nil {
		// Kill the current coroutine generation and wait it out; the new
		// generation gets a fresh kill channel.
		close(r.kill)
		r.wg.Wait()
		r.kill = make(chan struct{})
	}
	r.mem.resetValues()
	// With every register value dropped and every machine about to be
	// rearmed or rebuilt, no vended arena object is reachable: recyclers
	// may take back everything in bulk, so a pooled runner's next job
	// starts with warm freelists instead of a cold heap — including after
	// mid-run stops that left scans in flight or crashed processes holding
	// leases.
	r.mem.resetRecyclers()
	// The message substrate rewinds with the run: queues emptied, timing and
	// sequence state back to step 0, pooled envelope storage retained — the
	// same bit-identical-replay contract the register plane keeps.
	if r.net != nil {
		r.net.Reset()
	}
	r.steps = 0
	// Counters cover the current run, mirroring Steps; the flight recorder,
	// if any, deliberately survives (its ring spans pooled jobs until the
	// debugging session resets it).
	r.stats = statCounters{}
	for _, p := range r.procs {
		p.isHalted = false
		p.stepCount = 0
		p.fault = FaultHonest
		p.pending = nil
		p.nextKind = 0
		p.nextRegID = 0
		p.nextValue = nil
		p.nextDest = 0
		p.started = false
		p.coll = nil
		p.collPos = 0
		if rm, ok := p.machine.(Rearmer); ok {
			rm.Rearm()
			continue
		}
		p.machine = nil
		p.ptrMachine = nil
		if err := r.start(p); err != nil {
			return err
		}
	}
	return nil
}

// Close terminates all process coroutines and waits for them to exit. The
// runner must not be used afterwards. Close is idempotent.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	close(r.kill)
	// Release processes whose requests were fetched but never answered.
	r.wg.Wait()
}
