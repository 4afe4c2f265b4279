// The machine-form handle on a snapshot object, for sim.Runner's machine
// mode: MachineObject binds a process to a named object's registers (by
// name, or through refs shared across handles) and to the runner's epoch
// arena, and hands out the object's one call automaton, FusedCall
// (fused.go). Object (snapshot.go) is the coroutine reference; the two
// intern the same registers and issue op-for-op the same streams.

package snapshot

import (
	"fmt"
	"strconv"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// segName builds the register name of q's segment, shared by the coroutine
// and machine forms so both intern the same slots. Plain concatenation: the
// BG simulation creates snapshot objects throughout a run (one per safe
// agreement instance), so construction sits near the hot path.
func segName(name string, q int) string {
	return "snap[" + name + "].seg[" + strconv.Itoa(q) + "]"
}

// MachineObject is the machine-form handle on a named snapshot object: the
// counterpart of Object for automata executed by direct dispatch.
//
// A process performs at most one snapshot call at a time, so the handle
// keeps one reusable FusedCall and hands it out per call: the hot BG loops
// allocate nothing per Scan/Update beyond the values that escape into
// registers. At most one call (scan or update) may be in flight per handle.
type MachineObject struct {
	n    int
	self procset.ID
	segs []sim.Ref
	// readOps[q] is the prebuilt read request for q's segment — the op every
	// collect step returns, materialized once per (re)bind instead of per
	// step.
	readOps []sim.Op
	// sharedRefs marks segs/readOps as aliases of caller-owned shared slices
	// (see RebindShared); a name-based rebind must then reallocate before
	// writing.
	sharedRefs bool

	// arena is the runner's recycler, nil on allocate-per-write runners
	// (coroutine mode, observed runs); bucket is the lease free list for
	// this object's view size, resolved once per bind.
	arena  *Arena
	bucket *leaseBucket

	fusedM FusedCall
}

// NewMachineObject creates the handle for the snapshot object with the given
// name. It performs no steps and interns the same registers as New.
func NewMachineObject(regs sim.Registry, name string, self procset.ID, n int) *MachineObject {
	o := &MachineObject{}
	o.Init(regs, name, self, n)
	return o
}

// Init initializes o in place, for callers that embed the handle by value
// (the BG simulation creates one safe agreement object per simulated
// (thread, round), so handle construction sits near the hot path).
func (o *MachineObject) Init(regs sim.Registry, name string, self procset.ID, n int) {
	o.n, o.self = n, self
	o.setArena(ArenaFor(regs))
	o.segs = make([]sim.Ref, n+1)
	o.readOps = make([]sim.Op, n+1)
	o.rebindRefs(regs, name)
}

// InitShared initializes o with prebuilt register refs and read ops (see
// SegRefs), shared read-only across handles. The BG simulation builds the
// slices once per named object and hands them to every simulator's handle,
// so binding the object for the (m−1) later simulators interns nothing.
func (o *MachineObject) InitShared(arena *Arena, self procset.ID, n int, segs []sim.Ref, readOps []sim.Op) {
	o.n, o.self = n, self
	o.setArena(arena)
	o.segs, o.readOps, o.sharedRefs = segs, readOps, true
}

func (o *MachineObject) setArena(a *Arena) {
	o.arena = a
	if a != nil {
		o.bucket = a.bucket(o.n + 1)
	} else {
		o.bucket = nil
	}
}

// Rebind points an initialized handle at a different named object of the
// same size, reusing every buffer (the ref slice and the cached call
// machine). The BG simulators recycle one safe agreement handle per thread
// this way as rounds advance, so steady-state round turnover costs only the
// register interning the model requires.
func (o *MachineObject) Rebind(regs sim.Registry, name string) {
	o.rebindRefs(regs, name)
}

// RebindShared points an initialized handle at a different object of the
// same size through prebuilt shared refs/read ops, interning nothing.
func (o *MachineObject) RebindShared(segs []sim.Ref, readOps []sim.Op) {
	o.segs, o.readOps, o.sharedRefs = segs, readOps, true
}

func (o *MachineObject) rebindRefs(regs sim.Registry, name string) {
	if o.sharedRefs {
		// The current slices belong to a shared cache; a name-based rebind
		// must not scribble over them.
		o.segs = make([]sim.Ref, o.n+1)
		o.readOps = make([]sim.Op, o.n+1)
		o.sharedRefs = false
	}
	for q := 1; q <= o.n; q++ {
		o.segs[q] = regs.Reg(segName(name, q))
		o.readOps[q] = sim.ReadOp(o.segs[q])
	}
}

// SegRefs interns the named object's registers and returns the ref slice and
// prebuilt read ops that InitShared/RebindShared accept. Both slices are
// read-only to the handles sharing them.
func SegRefs(regs sim.Registry, name string, n int) ([]sim.Ref, []sim.Op) {
	segs := make([]sim.Ref, n+1)
	readOps := make([]sim.Op, n+1)
	for q := 1; q <= n; q++ {
		segs[q] = regs.Reg(segName(name, q))
		readOps[q] = sim.ReadOp(segs[q])
	}
	return segs, readOps
}

// segLayout is a named object's shared refs and read ops (see SegRefs).
type segLayout struct {
	segs    []sim.Ref
	readOps []sim.Op
}

// segKey keys a segLayout in the runner's layout cache.
type segKey struct {
	name string
	n    int
}

// LayoutRefs is SegRefs through the runner's layout cache: the named
// object's registers are interned and its read ops built once per runner,
// and every later call — a factory run again by Runner.Reset included —
// returns the same read-only slices, ready for InitShared.
func LayoutRefs(regs sim.Registry, name string, n int) ([]sim.Ref, []sim.Op) {
	l := sim.Layout(regs, segKey{name, n}, func() segLayout {
		segs, readOps := SegRefs(regs, name, n)
		return segLayout{segs, readOps}
	})
	return l.segs, l.readOps
}

// decodeSegment maps a register value to its segment, shared by the
// coroutine and machine forms: nil (never written) decodes to the zero
// segment. Segments travel by pointer, so decoding costs no copy.
func decodeSegment(v any) *segment {
	s, ok := v.(*segment)
	if !ok {
		if v == nil {
			return &zeroSegment
		}
		panic(fmt.Sprintf("snapshot: register holds %T, want *segment", v))
	}
	return s
}
