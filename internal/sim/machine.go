// Direct-dispatch execution: first-class automata stepped with plain
// function calls.
//
// The coroutine path (Algorithm) is the convenient way to write a process —
// straight-line Go code that blocks on Read/Write — but every step pays two
// unbuffered-channel handoffs and the goroutine context switches around
// them. A Machine is the same automaton made explicit: the runner hands it
// the result of its previous operation and it returns its next request, so a
// step is one function call on the stepping goroutine. Both forms execute
// under the same Runner with identical observable behavior (StepInfo
// streams, harness-visible state between steps), which the algorithm
// packages verify with equivalence tests.

package sim

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// Op is the operation a Machine requests from the runner: one read or write
// of one shared register, a collect (a run of reads, see CollectOp), or — on
// runners with a Config.Network — one send or recv on the message
// substrate.
type Op struct {
	// Kind is OpRead, OpWrite, OpSend, or OpRecv; a collect is an OpRead.
	Kind OpKind
	// Reg is the register to operate on (read/write kinds), obtained from
	// the Registry the machine was built with. Nil for send/recv kinds and
	// for collects.
	Reg Ref
	// Value is the value to store for OpWrite or the payload for OpSend.
	// A collect keeps its body here (a *collect, set by CollectOp), which
	// leaves the Op as small as a plain read's; ignored otherwise.
	Value any
	// Dest is the destination process for OpSend; ignored otherwise.
	Dest procset.ID
	// reg is Reg pre-asserted to the runner's concrete register type, filled
	// by ReadOp/WriteOp. Machines hand back prebuilt ops (often the same Op
	// for millions of steps), so resolving at construction spares the
	// stepping loops a type assertion per step. Nil for literally-constructed
	// Ops, for which the loops fall back to the asserting path, and for
	// collects, which settle starts.
	reg *register
}

// collect is the body of a CollectOp: the dense ids of the registers to read
// in order, and the buffer their values land in.
type collect struct {
	ids []RegID
	dst []any
}

// ReadOp returns a read request for r.
func ReadOp(r Ref) Op { return Op{Kind: OpRead, Reg: r, reg: asRegister(r)} }

// WriteOp returns a write request storing v in r.
func WriteOp(r Ref, v any) Op { return Op{Kind: OpWrite, Reg: r, Value: v, reg: asRegister(r)} }

// SendOp returns a send request addressing payload to process to. The
// payload follows the register-value aliasing contract: treat it as
// immutable once sent. A nil payload is a pure signal — the delivered
// Message already carries the sender and send step.
func SendOp(to procset.ID, payload any) Op { return Op{Kind: OpSend, Dest: to, Value: payload} }

// RecvOp returns a receive request: the automaton's next prev will be the
// next deliverable *Message, or nil when the substrate has nothing ready.
func RecvOp() Op { return Op{Kind: OpRecv} }

// CollectOp returns a collect request: a run of reads of regs in order, one
// step per register, with the value of the i-th read stored in dst[i] at
// the moment that step executes. Every read is an ordinary OpRead step —
// StepInfo, PendingOp (which reports the register in flight), the stats
// block and the flight recorder see exactly the steps the per-read
// expansion would produce — but the machine is not called between them: its
// next NextOp runs once, after the last read, with that read's
// value as prev and every value in dst. A process crashed mid-collect (the
// schedule stops granting it steps) leaves dst partly filled; Runner.Reset
// drops an unfinished collect.
//
// A collect costs the stepping loop a store and a cursor bump per read
// instead of a machine call, which is what a scan of many registers wants.
// The Op resolves regs once, allocating: build it with the machine's layout
// (see Layout) and hand back the same Op for every collect. dst belongs to
// the runner while the collect is in flight. regs must not be empty, dst
// must be exactly as long, and every ref must come from the runner's
// Registry.
func CollectOp(regs []Ref, dst []any) Op {
	if len(regs) == 0 || len(dst) != len(regs) {
		panic(fmt.Sprintf("sim: collect of %d registers into %d slots", len(regs), len(dst)))
	}
	c := &collect{ids: make([]RegID, len(regs)), dst: dst}
	for i, ref := range regs {
		c.ids[i] = mustRegister(ref).id
	}
	return Op{Kind: OpRead, Value: c}
}

// asRegister resolves a Ref to the concrete register, or nil if it is
// foreign (reported later by mustRegister with a proper panic).
func asRegister(r Ref) *register {
	reg, _ := r.(*register)
	return reg
}

// Machine is an explicit process automaton, the direct-dispatch alternative
// to Algorithm. The runner calls NextOp with the result of the machine's
// previous operation — the value read for OpRead, nil for OpWrite, and nil
// on the very first call (no operation precedes it) — and the machine
// returns its next request. Returning nil halts the automaton (the
// analogue of an Algorithm function returning); subsequent steps granted
// to the process are no-ops.
//
// The request is a pointer into storage the machine keeps stable (a
// prebuilt op table, a write-op buffer), so no Op is copied across the
// dispatch boundary; the pointed-to Op need only stay valid until the
// machine's next call. The runner only reads the Op, so it may live in a
// layout shared by every machine of the runner (see Layout). Ops built by
// ReadOp and WriteOp carry their resolved register and are stored by the
// kernel inline; literal Ops, collects and message ops go through the
// runner's checking path.
//
// NextOp runs on the stepping goroutine with no other process active,
// exactly like the local-computation window of a coroutine process between
// steps: it may freely update state shared with the harness.
type Machine interface {
	NextOp(prev any) *Op
}

// Registry provides register interning to Machine factories. It is the
// register-naming subset of Env: calling Reg costs no steps, and handles are
// shared across processes by name. The Runner's shared memory implements it.
type Registry interface {
	// Reg returns the shared register with the given name, creating it with
	// initial value nil if needed.
	Reg(name string) Ref
}

// Rearmer is an optional extension of Machine for automata that can return
// to their initial state in place. When the previous run's machine
// implements it, Runner.Reset calls Rearm and keeps the machine, so
// Config.Machine runs only on the runner's first build and for machines
// without Rearm.
//
// After Rearm the machine must be indistinguishable from the one the
// factory would build for the same process on the same runner: every
// mutable field back to its initial value, its buffers reused rather than
// reallocated, and whatever the factory reads or does on each build done
// again — reading a harness value that may have changed since (a proposal
// function), writing the harness state the factory initialises, rebinding
// handles on runner-scoped recyclers, which Reset has just reset. Rearm
// runs where the factory would, in process order after the register plane,
// the recyclers and the network are reset.
type Rearmer interface {
	Rearm()
}

// MachineFunc adapts a plain function to the Machine interface.
type MachineFunc func(prev any) *Op

// NextOp calls f.
func (f MachineFunc) NextOp(prev any) *Op { return f(prev) }

// PendingOp reports the operation process p will execute when next granted a
// step, without executing it: the op kind and the target register's dense id.
// Halted processes report (OpNoop, -1) — their steps are no-ops — and
// message steps (OpSend/OpRecv) report -1 too: they touch no register. Peeking an
// unstarted machine runs its pre-first-op local computation (exactly the work
// the first granted step would run), which is unobservable to checks that
// read op-completion results; the subsequent first step does not repeat it.
// The partial-order-reduced explorer uses this to compute which pending
// operations commute. Machine-mode runners only; a coroutine process's next
// request is not knowable without a rendezvous, so coroutine runners panic.
func (r *Runner) PendingOp(p procset.ID) (OpKind, RegID) {
	if r.machine == nil {
		panic("sim: PendingOp requires a direct-dispatch (Machine) runner")
	}
	pr := r.procAt(p)
	if !pr.started && !pr.isHalted {
		pr.started = true
		r.advanceMachine(pr, nil)
	}
	if pr.isHalted {
		return OpNoop, -1
	}
	return pr.nextKind, pr.nextRegID
}

// exec is the machine-mode step kernel: every machine step — batched,
// scheduled, directed, Byzantine or observed — runs through it. It executes
// n steps. The process taking step i is ps[i] or, when d is non-nil,
// d.Next(); the loop stays inside the kernel either way, so a batched or
// directed run pays no call per step beyond the machine advance.
//
// Each step applies the pending request to shared memory (or hands it to
// the network) with plain loads and stores, counts the step in the stats
// block and the flight recorder, and advances the machine in place to
// produce its next request (its local computation runs now, mirroring the
// coroutine park barrier). A director that is also a WriteMutator decides
// the value each write lands, and OnWrite then reports the landed value.
// When res is non-nil it receives what the last step did, which is how
// Step fills its StepInfo.
func (r *Runner) exec(n int, ps []procset.ID, d Director, res *stepResult) {
	mut, _ := d.(WriteMutator)
	for i := 0; i < n; i++ {
		var p procset.ID
		if d != nil {
			p = d.Next()
		} else {
			p = ps[i]
		}
		pr := r.procAt(p)
		index := r.steps
		r.steps++
		if !pr.started {
			// First activation: the machine's initialization already ran in
			// its factory; fetch its first request.
			pr.started = true
			r.advanceMachine(pr, nil)
		}
		if pr.isHalted {
			r.stats.noops++
			if fr := r.flight; fr != nil {
				fr.record(index, p, OpNoop, -1)
			}
			if res != nil {
				res.kind, res.id, res.v, res.peer = OpNoop, -1, nil, 0
			}
			continue
		}
		kind, id := pr.nextKind, pr.nextRegID
		pr.stepCount++
		var prev, v any
		var peer procset.ID
		held := false // a collect read with more to come: the machine waits
		// mem is a stable pointer, but its dense slices are re-read per
		// step: a machine's NextOp may intern a register (mid-run Rebind),
		// growing them.
		mem := r.mem
		switch kind {
		case OpRead:
			v = mem.values[id]
			prev = v
			r.stats.reads++
			if c := pr.coll; c != nil {
				// A collect read: land the value, then move the request on
				// to the next register in place, so PendingOp stays exact.
				c.dst[pr.collPos] = v
				if pr.collPos++; pr.collPos < len(c.ids) {
					pr.nextRegID = c.ids[pr.collPos]
					held = true
				} else {
					pr.coll = nil
				}
			}
		case OpWrite:
			v = pr.nextValue
			if mut != nil {
				v = mut.MutateWrite(id, p, mem.values[id], v)
			}
			mem.values[id] = v
			mem.writeSeqs[id]++
			mem.lastWriter[id] = p
			r.stats.writes++
		case OpSend:
			v, peer = pr.nextValue, pr.nextDest
			r.net.Send(index, p, peer, v)
			r.stats.sends++
		default: // OpRecv — settle admits nothing else
			if m := r.net.Recv(index, p); m != nil {
				prev, v, peer = m, m.Payload, m.From
			}
			r.stats.recvs++
		}
		if fr := r.flight; fr != nil {
			fr.record(index, p, kind, id)
		}
		if res != nil {
			// Field by field: a whole-struct store through the pointer
			// compiles to a runtime.wbMove call, which Step pays per step.
			res.kind, res.id, res.v, res.peer = kind, id, v, peer
		}
		if held {
			continue
		}
		// Advance the machine in place. The common requests are stored
		// right here: a resolved read or write, a recv on a networked
		// runner, a halt. The rest goes through settle.
		if op := pr.machine.NextOp(prev); op == nil {
			pr.isHalted = true
		} else if rr := op.reg; rr != nil && op.Kind == OpRead {
			// Reads leave the stale value in place (the read path never
			// looks at it), sparing an interface store per read step.
			pr.nextKind, pr.nextRegID = OpRead, rr.id
		} else if rr != nil && op.Kind == OpWrite {
			pr.nextKind, pr.nextRegID, pr.nextValue = OpWrite, rr.id, op.Value
		} else if op.Kind == OpRecv && r.net != nil {
			pr.nextKind, pr.nextRegID = OpRecv, -1
		} else {
			r.settle(pr, op)
		}
		if d != nil && kind == OpWrite {
			d.OnWrite(id, p, v)
		}
	}
}

// stepResult is what one kernel step did: its kind, the register's dense id
// (-1 for no-ops and message steps), the value read, landed, sent or
// received (the payload), and the other endpoint of a message step.
type stepResult struct {
	kind OpKind
	id   RegID
	v    any
	peer procset.ID
}

// advanceMachine asks pr's machine for its next request and stores it
// through settle: first activation and PendingOp's peek. The kernel
// inlines the same call with its common cases.
func (r *Runner) advanceMachine(pr *proc, prev any) {
	r.settle(pr, pr.machine.NextOp(prev))
}

// settle stores op as pr's pending request, halting the process when op is
// nil. The request is stored resolved (kind, register id, value), so the
// kernel touches no Op struct and performs no type assertion per step.
// Message-plane requests park the register id on the sentinel -1, which is
// what PendingOp reports for them.
// Every request the kernel does not store inline comes here, and so do
// the checks: a nil Reg, a bad send destination, a message op without a
// network, an unknown kind.
func (r *Runner) settle(pr *proc, op *Op) {
	if op == nil {
		pr.isHalted = true
		return
	}
	switch op.Kind {
	case OpRead, OpWrite:
		rr := op.reg
		if rr == nil {
			if op.Reg == nil {
				if c, ok := op.Value.(*collect); ok && op.Kind == OpRead {
					// A collect starts pending on its first read.
					pr.coll, pr.collPos = c, 0
					pr.nextKind, pr.nextRegID = OpRead, c.ids[0]
					return
				}
				panic("sim: Machine returned an Op with nil Reg")
			}
			rr = mustRegister(op.Reg)
		}
		pr.nextKind, pr.nextRegID = op.Kind, rr.id
		if op.Kind == OpWrite {
			pr.nextValue = op.Value
		}
		return
	case OpSend, OpRecv:
		if r.net == nil {
			panic(fmt.Sprintf("sim: %v op on a runner without Config.Network", op.Kind))
		}
	default:
		panic(badOpKind(op.Kind))
	}
	if op.Kind == OpSend {
		dest := op.Dest
		if dest < 1 || procset.ID(r.n) < dest {
			panic(fmt.Sprintf("sim: send destination %v outside Π%d", dest, r.n))
		}
		if dest == pr.id {
			panic(fmt.Sprintf("sim: %v sends to itself", pr.id))
		}
		pr.nextDest = dest
		pr.nextValue = op.Value
	}
	pr.nextKind = op.Kind
	pr.nextRegID = -1
}
