// Direct-dispatch forms of the snapshot object: Scan and Update with their
// program counters made explicit, for sim.Runner's machine mode. Each call
// is a one-shot sub-automaton with the Start/Feed/Result protocol used
// throughout the machine ports (see consensus.InstanceMachine): Start issues
// the call's first operation, Feed consumes results and issues the rest
// (nil completes the call), Result delivers the return value. Operations
// travel as pointers into stable per-machine storage — the sub-automaton
// chain of the BG simulation is four layers deep, and forwarding a five-word
// Op struct by value through every layer was a measurable share of each
// step — so a returned op must be consumed before the machine's next call.
// Operation streams are op-for-op those of Object.Scan and Object.Update,
// which the BG-simulation equivalence tests pin end to end.

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
// A process performs at most one snapshot call at a time (its sub-automata
// run strictly sequentially), so the handle keeps one reusable ScanMachine
// and one reusable UpdateMachine and hands them out per call: the hot BG
// loops allocate nothing per Scan/Update beyond the values that escape into
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

	scanM  ScanMachine
	updM   UpdateMachine
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
// machines). The BG simulators recycle one safe agreement handle per thread
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

// ScanMachine is one Scan call as a sub-automaton: repeated collects until
// two agree or a doubly-moved process's embedded view can be borrowed.
type ScanMachine struct {
	o         *MachineObject
	prev      []*segment
	cur       []*segment
	moved     []int
	q         int
	havePrev  bool
	view      View
	viewBuf   View // reusable direct-view buffers (see Result)
	direct    bool // view aliases viewBuf
	wantOwned bool // direct results must be freshly allocated (see NewScanOwned)
	// lease backs an owned result on a recycled runner: a fresh lease for a
	// direct result, or the borrowed segment's pinned lease. The caller
	// (the update machine) transfers it into the segment it writes.
	lease *viewLease
}

// NewScan begins a Scan call on the handle's reusable scan machine. Call
// Start for the first operation. The returned machine is valid until the
// next NewScan or NewUpdate on this handle.
func (o *MachineObject) NewScan() *ScanMachine {
	s := &o.scanM
	if s.o == nil {
		s.o = o
		s.prev = make([]*segment, o.n+1)
		s.cur = make([]*segment, o.n+1)
		s.moved = make([]int, o.n+1)
	}
	s.havePrev = false
	s.view, s.direct, s.wantOwned = View{}, false, false
	s.lease = nil
	clear(s.moved)
	return s
}

// newScanOwned is NewScan for callers that will retain the result (the
// update machine embeds it in the written segment): a direct result is
// built in fresh slices up front, so ResultOwned clones nothing.
func (o *MachineObject) newScanOwned() *ScanMachine {
	s := o.NewScan()
	s.wantOwned = true
	return s
}

// Start issues the call's first operation (the first read of the initial
// collect). On a recycled runner it also opens the scan's epoch ticket:
// segments retired from here on stay alive until the scan completes, which
// is exactly the interval during which the collect buffers may hold them.
func (s *ScanMachine) Start() *sim.Op {
	if s.o.arena != nil {
		s.o.arena.BeginScan(s.o.self)
	}
	s.q = 1
	return &s.o.readOps[1]
}

// Feed consumes the result of the read in flight and issues the next one;
// nil completes the call (see Result).
func (s *ScanMachine) Feed(prev any) *sim.Op {
	s.cur[s.q] = decodeSegment(prev)
	if s.q < s.o.n {
		s.q++
		return &s.o.readOps[s.q]
	}
	// A full collect just completed.
	if !s.havePrev {
		s.havePrev = true
		s.prev, s.cur = s.cur, s.prev
		s.q = 1
		return &s.o.readOps[1]
	}
	same := true
	for q := 1; q <= s.o.n; q++ {
		if s.cur[q].Seq != s.prev[q].Seq {
			same = false
			s.moved[q]++
			if s.moved[q] >= 2 {
				// q completed two Updates inside our interval; borrow its
				// embedded view, exactly as Object.Scan does. On the
				// allocate-per-write paths views are immutable once written,
				// so no defensive clone is needed; on a recycled runner an
				// owned borrow pins the source segment's lease so the view
				// outlives both this scan and the borrowed-from segment.
				s.view, s.direct = s.cur[q].Emb, false
				if a := s.o.arena; a != nil {
					if s.wantOwned {
						if l := s.cur[q].lease; l != nil {
							l.retain()
							s.lease = l
							a.stats.Pins++
						} else {
							// Not lease-backed (cannot happen on an all-
							// recycled runner; kept as a safe fallback):
							// clone instead of pinning.
							s.view = cloneView(s.view)
						}
						a.EndScan(s.o.self)
					}
					// Non-owned borrow: the ticket stays open so the reclaim
					// EndScan would run cannot free the borrowed-from
					// segment before the caller consumes Result; it dies at
					// this process's next BeginScan.
				}
				return nil
			}
		}
	}
	if same {
		if s.wantOwned {
			if a := s.o.arena; a != nil {
				// Build the owned result in a leased backing: the payload
				// slots hold one retained reference each, released when the
				// lease dies with its last embedding segment.
				l := s.o.bucket.newLease()
				for q := 1; q <= s.o.n; q++ {
					v := s.cur[q].Val
					retain(v)
					l.vals[q] = v
					l.seqs[q] = s.cur[q].Seq
				}
				s.view, s.lease = View{Vals: l.vals, Seqs: l.seqs}, l
				a.EndScan(s.o.self)
				return nil
			}
			// The caller retains the result: build it in fresh slices.
			s.view, s.direct = directView(s.cur), false
			return nil
		}
		// Fill the reusable direct-view buffers instead of allocating a
		// fresh View per scan; Result documents the aliasing.
		if s.viewBuf.Vals == nil {
			s.viewBuf = View{Vals: make([]any, s.o.n+1), Seqs: make([]int, s.o.n+1)}
		}
		for q := 1; q <= s.o.n; q++ {
			s.viewBuf.Vals[q] = s.cur[q].Val
			s.viewBuf.Seqs[q] = s.cur[q].Seq
		}
		s.view, s.direct = s.viewBuf, true
		// Non-owned direct result: the ticket stays open — the buffered
		// payload values alias boxes whose segments may retire during the
		// final collect, and reclaiming them here would release the boxes
		// before the caller reads them. The ticket dies at this process's
		// next BeginScan.
		return nil
	}
	s.prev, s.cur = s.cur, s.prev
	s.q = 1
	return &s.o.readOps[1]
}

// Result returns the completed call's snapshot. The returned View may alias
// the machine's reusable buffers: it is valid (and must be treated as
// read-only) until the process's next snapshot call begins on any handle.
// On a recycled runner that boundary is enforced by the epoch arena: a
// non-owned completion leaves the scan's ticket open, so the segments and
// leases the result may alias cannot be reclaimed until the next call's
// BeginScan replaces it. Use ResultOwned for a View that outlives the
// handle's next call.
func (s *ScanMachine) Result() View { return s.view }

// ResultOwned returns the completed call's snapshot as an independent View,
// cloning only when the result aliases the reusable buffers (borrowed
// embedded views are immutable and already stable).
func (s *ScanMachine) ResultOwned() View {
	if s.direct {
		return cloneView(s.view)
	}
	return s.view
}

// updatePhase locates an UpdateMachine's pending operation.
type updatePhase int

const (
	upScan     updatePhase = iota // the embedded scan is running
	upSelfRead                    // the own-segment read is in flight
	upWrite                       // the segment write is in flight
)

// UpdateMachine is one Update call as a sub-automaton: an embedded scan,
// the own-segment read, and the segment write.
type UpdateMachine struct {
	o     *MachineObject
	v     any
	scan  *ScanMachine
	phase updatePhase
	// old is this process's overwritten segment, retired to the arena once
	// the write executed (recycled runners only). Single-writer registers
	// make the capture exact: nobody else can write the slot between the
	// own-segment read and the write.
	old *segment
	// writeOp is the stable storage behind the returned segment-write op.
	writeOp sim.Op
}

// NewUpdate begins an Update(v) call on the handle's reusable update
// machine (whose embedded scan is the handle's reusable scan machine). Call
// Start for the first operation. The returned machine is valid until the
// next NewScan or NewUpdate on this handle. On a recycled runner the call
// takes ownership of one reference to v if v implements Shared; the
// reference is released when the written segment is eventually reclaimed.
func (o *MachineObject) NewUpdate(v any) *UpdateMachine {
	u := &o.updM
	u.o, u.v, u.scan, u.phase, u.old = o, v, o.newScanOwned(), upScan, nil
	return u
}

// Start issues the call's first operation.
func (u *UpdateMachine) Start() *sim.Op { return u.scan.Start() }

// Feed consumes the result of the operation in flight and issues the next
// one; nil completes the call.
func (u *UpdateMachine) Feed(prev any) *sim.Op {
	switch u.phase {
	case upScan:
		if op := u.scan.Feed(prev); op != nil {
			return op
		}
		u.phase = upSelfRead
		return &u.o.readOps[u.o.self]
	case upSelfRead:
		oldSeg := decodeSegment(prev)
		u.phase = upWrite
		var seg *segment
		if a := u.o.arena; a != nil {
			seg = a.newSegment()
			if oldSeg.Seq > 0 {
				u.old = oldSeg
			}
		} else {
			seg = &segment{}
		}
		seg.Seq, seg.Val = oldSeg.Seq+1, u.v
		seg.Emb, seg.lease = u.scan.ResultOwned(), u.scan.lease
		u.writeOp = sim.WriteOp(u.o.segs[u.o.self], seg)
		return &u.writeOp
	case upWrite:
		if u.old != nil {
			// The overwrite executed: from now on only scans already in
			// flight can hold the old segment, so the epoch rule bounds its
			// remaining lifetime.
			u.o.arena.retire(u.old)
			u.old = nil
		}
		return nil
	default:
		panic(fmt.Sprintf("snapshot: invalid update phase %d", u.phase))
	}
}
