// The snapshot call automaton: Scan and Update as ONE flat sub-automaton
// with the Start/Feed/Result protocol of the machine ports (see
// consensus.InstanceMachine). Start issues the call's first operation, Feed
// consumes each result and issues the next operation (nil completes the
// call), and Result delivers the scan's view. A scan call runs entirely
// inside fcCollect; an update call continues through fcSelfRead and
// fcWrite. One struct, one phase word and one switch, so a step costs one
// dynamic call whether the caller is a plain scan or the BG simulator's
// safe-agreement doorway.
//
// Operations travel as pointers into stable per-call storage, so a returned
// op must be consumed before the next Feed. Every arena interaction (epoch
// tickets, owned-lease construction, borrow pinning, segment retirement)
// lives here. The operation streams and returned views are op-for-op those
// of Object.Scan and Object.Update, which the recycler tests (arena_test.go)
// pin against the coroutine reference and the bg tests pin end to end.
package snapshot

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/sim"
)

// fusedPhase locates a FusedCall's pending operation.
type fusedPhase int32

const (
	fcCollect  fusedPhase = iota // a collect read is in flight
	fcSelfRead                   // update only: the own-segment read is in flight
	fcWrite                      // update only: the segment write is in flight
)

// FusedCall is one snapshot call — Scan or Update — as a single flat
// sub-automaton with the Start/Feed/Result protocol. Obtain one from
// MachineObject.NewFusedScan or NewFusedUpdate; it is valid until the next
// call begins on the handle. Ops are returned as pointers into stable
// per-call storage and must be consumed before the next Feed.
type FusedCall struct {
	o *MachineObject
	// n and readOps mirror the handle's fields, captured per call: the
	// collect loop touches them every step, and rebinds (which replace the
	// handle's slices) never happen while a call is in flight.
	n       int
	readOps []sim.Op

	// Collect state (both call kinds).
	prev     []*segment
	cur      []*segment
	moved    []int
	q        int
	havePrev bool

	phase  fusedPhase
	update bool // this call is an Update; run fcSelfRead/fcWrite after the scan converges
	v      any  // the update's value

	// Result state (see Result for the aliasing rules). direct marks a view
	// that aliases viewBuf; wantOwned asks for a result the caller retains
	// (the update embeds it in the written segment); lease backs an owned
	// result on a recycled runner, transferred into the written segment.
	view      View
	viewBuf   View
	direct    bool
	wantOwned bool
	lease     *viewLease

	// old is the update's overwritten segment, retired once the write
	// executed (recycled runners only).
	old     *segment
	writeOp sim.Op
}

// NewFusedScan begins a Scan call on the handle's reusable fused machine.
// Call Start for the first operation. The returned call is valid until the
// next New* call on this handle, and its Result may alias reusable buffers
// (see Result).
func (o *MachineObject) NewFusedScan() *FusedCall {
	f := o.fusedReset()
	f.update, f.wantOwned = false, false
	return f
}

// NewFusedUpdate begins an Update(v) call on the handle's reusable fused
// machine. On a recycled runner the call takes ownership of one reference
// to v if v implements Shared, released when the written segment is
// eventually reclaimed.
func (o *MachineObject) NewFusedUpdate(v any) *FusedCall {
	f := o.fusedReset()
	f.update, f.wantOwned, f.v = true, true, v
	return f
}

func (o *MachineObject) fusedReset() *FusedCall {
	f := &o.fusedM
	if f.o == nil {
		f.o = o
		f.prev = make([]*segment, o.n+1)
		f.cur = make([]*segment, o.n+1)
		f.moved = make([]int, o.n+1)
	}
	f.n, f.readOps = o.n, o.readOps
	f.havePrev = false
	f.phase = fcCollect
	f.view, f.direct = View{}, false
	f.lease, f.old, f.v = nil, nil, nil
	clear(f.moved)
	return f
}

// Start issues the call's first operation (the first read of the initial
// collect) and, on a recycled runner, opens the scan's epoch ticket.
func (f *FusedCall) Start() *sim.Op {
	if f.o.arena != nil {
		f.o.arena.BeginScan(f.o.self)
	}
	f.q = 1
	return &f.readOps[1]
}

// Feed consumes the result of the operation in flight and issues the next
// one; nil completes the call. Scan convergence falls through to the
// update's self-read (scanDone).
func (f *FusedCall) Feed(prev any) *sim.Op {
	switch f.phase {
	case fcCollect:
		f.cur[f.q] = decodeSegment(prev)
		if f.q < f.n {
			f.q++
			return &f.readOps[f.q]
		}
		// A full collect just completed.
		if !f.havePrev {
			f.havePrev = true
			f.prev, f.cur = f.cur, f.prev
			f.q = 1
			return &f.readOps[1]
		}
		same := true
		for q := 1; q <= f.n; q++ {
			if f.cur[q].Seq != f.prev[q].Seq {
				same = false
				f.moved[q]++
				if f.moved[q] >= 2 {
					// q completed two Updates inside our interval; borrow its
					// embedded view, exactly as Object.Scan does. Views are
					// immutable once written on the allocate-per-write
					// paths, so no defensive clone is needed. On a recycled
					// runner an owned borrow pins the source segment's lease
					// so the view outlives both this scan and the borrowed-
					// from segment; a non-owned borrow leaves the epoch
					// ticket open, so the reclaim EndScan would run cannot
					// free the borrowed-from segment before the caller
					// consumes Result. It dies at this process's next
					// BeginScan.
					f.view, f.direct = f.cur[q].Emb, false
					if a := f.o.arena; a != nil {
						if f.wantOwned {
							if l := f.cur[q].lease; l != nil {
								l.retain()
								f.lease = l
								a.stats.Pins++
							} else {
								// Not lease-backed (cannot happen on an
								// all-recycled runner): clone instead.
								f.view = cloneView(f.view)
							}
							a.EndScan(f.o.self)
						}
					}
					return f.scanDone()
				}
			}
		}
		if same {
			if f.wantOwned {
				if a := f.o.arena; a != nil {
					// Owned direct result in a leased backing: the payload
					// slots hold one retained reference each, released when
					// the lease dies with its last embedding segment.
					l := f.o.bucket.newLease()
					for q := 1; q <= f.n; q++ {
						v := f.cur[q].Val
						retain(v)
						l.vals[q] = v
						l.seqs[q] = f.cur[q].Seq
					}
					f.view, f.lease = View{Vals: l.vals, Seqs: l.seqs}, l
					a.EndScan(f.o.self)
					return f.scanDone()
				}
				// The caller retains the result: build it in fresh slices.
				f.view, f.direct = directView(f.cur), false
				return f.scanDone()
			}
			if f.viewBuf.Vals == nil {
				f.viewBuf = View{Vals: make([]any, f.o.n+1), Seqs: make([]int, f.o.n+1)}
			}
			for q := 1; q <= f.n; q++ {
				f.viewBuf.Vals[q] = f.cur[q].Val
				f.viewBuf.Seqs[q] = f.cur[q].Seq
			}
			f.view, f.direct = f.viewBuf, true
			// Non-owned direct result: the ticket stays open. The buffered
			// payload values alias boxes whose segments may retire during
			// the final collect, and reclaiming them here would release the
			// boxes before the caller reads them. The ticket dies at this
			// process's next BeginScan.
			return f.scanDone()
		}
		f.prev, f.cur = f.cur, f.prev
		f.q = 1
		return &f.readOps[1]
	case fcSelfRead:
		oldSeg := decodeSegment(prev)
		f.phase = fcWrite
		var seg *segment
		if a := f.o.arena; a != nil {
			seg = a.newSegment()
			if oldSeg.Seq > 0 {
				f.old = oldSeg
			}
		} else {
			seg = &segment{}
		}
		seg.Seq, seg.Val = oldSeg.Seq+1, f.v
		seg.Emb, seg.lease = f.ownedView(), f.lease
		f.writeOp = sim.WriteOp(f.o.segs[f.o.self], seg)
		return &f.writeOp
	case fcWrite:
		if f.old != nil {
			// The overwrite executed: from now on only scans already in
			// flight can hold the old segment, so the epoch rule bounds its
			// remaining lifetime.
			f.o.arena.retire(f.old)
			f.old = nil
		}
		return nil
	default:
		panic(fmt.Sprintf("snapshot: invalid fused phase %d", f.phase))
	}
}

// scanDone ends the collect phase: a plain scan completes here; an update
// falls through to its own-segment read.
func (f *FusedCall) scanDone() *sim.Op {
	if !f.update {
		return nil
	}
	f.phase = fcSelfRead
	return &f.readOps[f.o.self]
}

// Result returns the completed call's snapshot: the scan result for a Scan
// call, the embedded scan's result for an Update call. A Scan's View may
// alias the call's reusable buffers: it is valid (and must be treated as
// read-only) until the process's next snapshot call begins on any handle.
// On a recycled runner the epoch arena enforces that boundary: a non-owned
// completion leaves the scan's ticket open, so the segments and leases the
// result may alias cannot be reclaimed until the next call's BeginScan
// replaces it.
func (f *FusedCall) Result() View { return f.view }

// ownedView returns the scan result as an independent View, cloning only
// when it aliases the reusable buffers (borrowed embedded views are
// immutable and already stable).
func (f *FusedCall) ownedView() View {
	if f.direct {
		return cloneView(f.view)
	}
	return f.view
}
