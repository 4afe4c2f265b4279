// Package snapshot implements single-writer atomic snapshot objects from
// read/write registers, after Afek, Attiya, Dolev, Gafni, Merritt and Shavit
// (JACM 1993), in the unbounded-sequence-number variant: a scan double
// collects until either two collects agree (a direct scan) or some process
// is seen to move twice, in which case the scanner borrows that process's
// embedded view, which was itself obtained by a scan nested entirely inside
// the borrower's interval.
//
// Atomic snapshots are the substrate of the BG simulation (internal/bg) and
// of the immediate-snapshot objects used by the §6 related-work experiment.
package snapshot

import (
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// View is the result of a scan: per-process latest values and their write
// sequence numbers (index 0 unused; Seqs[q] = 0 means q never updated).
// Atomicity manifests as total orderability: for any two views returned by
// the object, one's Seqs vector dominates the other componentwise.
type View struct {
	Vals []any
	Seqs []int
}

// Get returns q's component value (nil if q never updated).
func (v View) Get(q procset.ID) any { return v.Vals[q] }

// segment is the per-process single-writer record. Registers hold segments
// by pointer (*segment): a segment is immutable once written, and the
// pointer form spares every collect read the copy of this three-field,
// view-carrying struct out of the interface — the single hottest load of
// the BG simulation.
type segment struct {
	Seq int  // write sequence number, 0 = never written
	Val any  // latest written value
	Emb View // embedded snapshot taken during the write

	// lease is the reference-counted backing of Emb when the segment was
	// written on a recycled runner (see arena.go); nil on the
	// allocate-per-write paths, where segments and views are immutable
	// garbage-collected values.
	lease *viewLease
}

// zeroSegment stands for a register that was never written; collect decodes
// nil to its address so readers never branch on presence.
var zeroSegment segment

// Object is one process's handle on a named snapshot object over n
// components (one per process). Update costs the steps of a scan plus two;
// Scan costs between 2n and (2n+1)·n steps.
type Object struct {
	env  sim.Env
	n    int
	self procset.ID
	segs []sim.Ref
}

// New creates the handle for the snapshot object with the given name.
// It performs no steps.
func New(env sim.Env, name string) *Object {
	n := env.N()
	o := &Object{env: env, n: n, self: env.Self(), segs: make([]sim.Ref, n+1)}
	for q := 1; q <= n; q++ {
		o.segs[q] = env.Reg(segName(name, q))
	}
	return o
}

func (o *Object) collect() []*segment {
	out := make([]*segment, o.n+1)
	for q := 1; q <= o.n; q++ {
		out[q] = decodeSegment(o.env.Read(o.segs[q]))
	}
	return out
}

func directView(c []*segment) View {
	v := View{Vals: make([]any, len(c)), Seqs: make([]int, len(c))}
	for q := 1; q < len(c); q++ {
		v.Vals[q] = c[q].Val
		v.Seqs[q] = c[q].Seq
	}
	return v
}

func cloneView(v View) View {
	out := View{Vals: make([]any, len(v.Vals)), Seqs: make([]int, len(v.Seqs))}
	copy(out.Vals, v.Vals)
	copy(out.Seqs, v.Seqs)
	return out
}

// Scan returns an atomic snapshot of the object.
func (o *Object) Scan() View {
	moved := make([]int, o.n+1)
	prev := o.collect()
	for {
		cur := o.collect()
		same := true
		for q := 1; q <= o.n; q++ {
			if cur[q].Seq != prev[q].Seq {
				same = false
				moved[q]++
				if moved[q] >= 2 {
					// q completed two Updates inside our interval; its
					// embedded view was obtained by a scan nested inside it
					// and is therefore a legal result for this scan.
					return cloneView(cur[q].Emb)
				}
			}
		}
		if same {
			return directView(cur)
		}
		prev = cur
	}
}

// Update sets this process's component to v, embedding a fresh scan in the
// written segment so concurrent scanners can borrow it.
func (o *Object) Update(v any) {
	emb := o.Scan()
	seq := decodeSegment(o.env.Read(o.segs[o.self])).Seq
	o.env.Write(o.segs[o.self], &segment{Seq: seq + 1, Val: v, Emb: emb})
}
