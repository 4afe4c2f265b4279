// Runner-scoped recycling for the BG simulation's write payloads. On the
// allocate-per-write paths every simulator publish and proposal allocates a
// fresh View copy (and boxes a fresh safe-agreement entry); on a recycled
// runner those payloads become reference-counted leases drawn from a shared
// pool, released when the snapshot segment holding them is reclaimed by the
// epoch rule (see internal/snapshot/arena.go, whose Shared interface the
// boxes implement). A payload's references mirror the places it is stored:
// one per safe-agreement entry wrapping it, one per segment Val, one per
// slot of an embedded leased view, plus its creator's reference for the
// duration of the call that writes it. Crashed processes can hold their
// creator references forever; Runner.Reset reclaims those in bulk through
// sim.Recycler.
//
// The shared state also leases whole register groups. A safe agreement
// object lives exactly one (thread, round); rounds are processed strictly
// in order by every simulator, so the object is dead — unnameable forever —
// once every simulator's current round on its thread is past it. At that
// point its register group goes back to a free list: the final segments
// still sitting in its registers are reclaimed through
// sim.RecyclerHost.TakeValue (the memory-plane free() of the model's
// infinite register space; a reset register reads as nil, exactly like a
// fresh one), and the next new round pops the group instead of interning
// fresh registers. Steady-state round turnover therefore costs no naming,
// no map interning, and no register growth; only the first simulator to
// reach a round ahead of the reclaim frontier ever interns. The cache and
// pool survive Runner.Reset — interned registers do too — so pooled
// runners replay jobs with zero naming work. A crashed simulator freezes
// its threads' frontiers, and the pool degrades to interning exactly where
// the model forces it to.

package bg

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
	"github.com/settimeliness/settimeliness/internal/snapshot"
)

// boxTrackCap bounds the bulk-reset tracking lists; boxes beyond the cap
// become garbage at the next Reset.
const boxTrackCap = 1 << 16

// bgKey identifies the BG shared state in the runner's recycler registry.
var bgKey = new(int)

// saRegs is one cached safe agreement object's interned registers: the ref
// slice and prebuilt read ops shared read-only by every simulator's handle.
type saRegs struct {
	segs    []sim.Ref
	readOps []sim.Op
}

// bgShared is the runner-scoped recycling state of one BG simulation: the
// payload pools and the (thread, round) register-group lease pool.
type bgShared struct {
	threads int // simulated threads (view length − 1)
	m       int // simulators (safe agreement object size)
	arena   *snapshot.Arena
	host    sim.RecyclerHost

	viewFree []*viewBox
	viewAll  []*viewBox
	saFree   []*saBox
	saAll    []*saBox

	// saRegs[i] caches thread i+1's live safe agreement objects; entry r−1
	// belongs to round r. Entries below the reclaim frontier are zeroed —
	// their groups moved to groupFree.
	saRegs [][]saRegs
	// groupFree holds register groups of dead objects, values already
	// reclaimed, ready to serve as fresh objects for new rounds.
	groupFree []saRegs

	// Round liveness, the death certificate for safe agreement objects: a
	// (thread, round) object is dead once every simulator's current round on
	// that thread is past it — rounds are processed strictly in order, so no
	// simulator will ever name it again, and a crashed or decided simulator
	// freezes the minimum, which errs exactly on the safe side. roundOf[p-1]
	// [i-1] is simulator p's current round on thread i; minRound[i-1] its
	// minimum over simulators.
	roundOf  [][]int
	minRound []int

	// handles[p-1] is simulator p's snapshot handles, leased to the fused
	// machine its factory builds (see handlesFor).
	handles []*fusedHandles
}

// fusedHandles is one fused simulator's snapshot handles on a recycled
// runner: the bg.mem handle and one safe agreement handle per thread. Each
// handle is ~0.7 KiB of reusable call machines and collect buffers that
// every call re-arms, so they outlive Reset: the factory rebinds them and
// clears their doorway state instead of allocating n+1 handles per run.
type fusedHandles struct {
	mem snapshot.MachineObject
	sas []fusedSA // indexed by thread (1-based)
}

// handlesFor leases simulator p's handles to a freshly built machine, with
// every safe agreement handle unbound. Factory-only: the previous machine
// of p was dropped by Runner.Reset, so nothing else holds them.
func (sh *bgShared) handlesFor(p procset.ID) *fusedHandles {
	h := sh.handles[p-1]
	if h == nil {
		h = &fusedHandles{sas: make([]fusedSA, sh.threads+1)}
		sh.handles[p-1] = h
	}
	for i := range h.sas {
		h.sas[i].proposed, h.sas[i].bound = false, false
	}
	return h
}

// bgSharedFor returns the runner-scoped shared state, or nil when the
// runner does not permit value recycling. The first simulator's factory
// creates it; the shape is fixed per runner.
func bgSharedFor(regs sim.Registry, threads, m int) *bgShared {
	host, ok := regs.(sim.RecyclerHost)
	if !ok {
		return nil
	}
	v := host.Recycler(bgKey, func() any {
		sh := &bgShared{
			threads:  threads,
			m:        m,
			arena:    snapshot.ArenaFor(regs),
			host:     host,
			saRegs:   make([][]saRegs, threads),
			roundOf:  make([][]int, m),
			minRound: make([]int, threads),
			handles:  make([]*fusedHandles, m),
		}
		for i := range sh.minRound {
			sh.minRound[i] = 1
		}
		for p := range sh.roundOf {
			r := make([]int, threads)
			for i := range r {
				r[i] = 1
			}
			sh.roundOf[p] = r
		}
		return sh
	})
	if v == nil {
		return nil
	}
	sh := v.(*bgShared)
	if sh.threads != threads || sh.m != m {
		panic(fmt.Sprintf("bg: runner shared state is shaped (threads=%d, m=%d), want (%d, %d)",
			sh.threads, sh.m, threads, m))
	}
	return sh
}

// saRefsFor returns thread i's round-r safe agreement registers: the cached
// live group, a recycled dead group, or — only when the pool is dry —
// freshly interned registers (rounds are reached in increasing order, so
// the cache grows by appending).
func (sh *bgShared) saRefsFor(regs sim.Registry, i, r int) ([]sim.Ref, []sim.Op) {
	rs := sh.saRegs[i-1]
	for len(rs) < r {
		var g saRegs
		if n := len(sh.groupFree); n > 0 {
			g = sh.groupFree[n-1]
			sh.groupFree = sh.groupFree[:n-1]
		} else {
			g.segs, g.readOps = snapshot.SegRefs(regs, "sa."+saName(i, len(rs)+1), sh.m)
		}
		rs = append(rs, g)
	}
	sh.saRegs[i-1] = rs
	c := rs[r-1]
	return c.segs, c.readOps
}

// advanceRound records simulator p moving to round r on thread i and frees
// every safe agreement object whose round fell below the new minimum: the
// final segments still in its registers are reclaimed through TakeValue
// (resetting the registers to the never-written state) and the group joins
// the free pool for a future round to reuse.
func (sh *bgShared) advanceRound(p procset.ID, i, r int) {
	sh.roundOf[p-1][i-1] = r
	min := r
	for q := range sh.roundOf {
		if rq := sh.roundOf[q][i-1]; rq < min {
			min = rq
		}
	}
	old := sh.minRound[i-1]
	if min <= old {
		return
	}
	sh.minRound[i-1] = min
	rs := sh.saRegs[i-1]
	for rr := old; rr < min && rr <= len(rs); rr++ {
		g := rs[rr-1]
		if g.segs == nil {
			continue // the object was never bound by anyone
		}
		for q := 1; q <= sh.m; q++ {
			sh.arena.ReclaimValue(sh.host.TakeValue(g.segs[q]))
		}
		rs[rr-1] = saRegs{}
		sh.groupFree = append(sh.groupFree, g)
	}
}

// newView leases a View payload initialized to a copy of src.
func (sh *bgShared) newView(src View) *viewBox {
	var b *viewBox
	if n := len(sh.viewFree); n > 0 {
		b = sh.viewFree[n-1]
		sh.viewFree = sh.viewFree[:n-1]
		b.refs = 1
	} else {
		b = &viewBox{view: make(View, sh.threads+1), refs: 1, pool: sh}
		if len(sh.viewAll) < boxTrackCap {
			sh.viewAll = append(sh.viewAll, b)
		}
	}
	copy(b.view, src)
	return b
}

// newSA leases a safe-agreement entry wrapping v, retaining v.
func (sh *bgShared) newSA(level int, v *viewBox) *saBox {
	var b *saBox
	if n := len(sh.saFree); n > 0 {
		b = sh.saFree[n-1]
		sh.saFree = sh.saFree[:n-1]
		b.refs = 1
	} else {
		b = &saBox{refs: 1, pool: sh}
		if len(sh.saAll) < boxTrackCap {
			sh.saAll = append(sh.saAll, b)
		}
	}
	b.level, b.view = level, v
	v.Retain()
	return b
}

// ResetRecycler implements sim.Recycler: with all registers cleared and all
// machines about to be rebuilt, every box returns to its free list in bulk —
// including creator references held by crashed writers. The register cache
// survives: interned registers do too.
func (sh *bgShared) ResetRecycler() {
	for _, r := range sh.roundOf {
		for i := range r {
			r[i] = 1
		}
	}
	for i := range sh.minRound {
		sh.minRound[i] = 1
	}
	// Every live register group returns to the pool: round numbering
	// restarts from 1, and Runner.Reset has already cleared the register
	// values (their segments are bulk-reclaimed by the arena's own reset).
	for i, rs := range sh.saRegs {
		for _, g := range rs {
			if g.segs != nil {
				sh.groupFree = append(sh.groupFree, g)
			}
		}
		sh.saRegs[i] = rs[:0]
	}
	sh.viewFree = sh.viewFree[:0]
	for _, b := range sh.viewAll {
		clear(b.view)
		b.refs = 0
		sh.viewFree = append(sh.viewFree, b)
	}
	sh.saFree = sh.saFree[:0]
	for _, b := range sh.saAll {
		b.level, b.view, b.refs = 0, nil, 0
		sh.saFree = append(sh.saFree, b)
	}
}

// viewBox is a leased View payload. It implements snapshot.Shared, so the
// arena releases it when the last segment or embedded view holding it is
// reclaimed.
type viewBox struct {
	view View
	refs int32
	pool *bgShared
}

// Retain implements snapshot.Shared.
func (b *viewBox) Retain() { b.refs++ }

// Release implements snapshot.Shared.
func (b *viewBox) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic("bg: view box over-released")
	}
	b.pool.viewFree = append(b.pool.viewFree, b)
}

// saBox is a leased safe-agreement entry: the recycled twin of saEntry,
// holding one retained reference on its proposal view.
type saBox struct {
	level int
	view  *viewBox
	refs  int32
	pool  *bgShared
}

// Retain implements snapshot.Shared.
func (b *saBox) Retain() { b.refs++ }

// Release implements snapshot.Shared.
func (b *saBox) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic("bg: safe-agreement box over-released")
	}
	b.view.Release()
	b.view = nil
	b.pool.saFree = append(b.pool.saFree, b)
}

// saEntryOf decodes a safe-agreement register value in either
// representation: the plain saEntry of the allocate-per-write paths, or the
// leased saBox of recycled runners. val is the proposal payload (a View or
// a *viewBox; see asView).
func saEntryOf(v any) (level int, val any, ok bool) {
	switch e := v.(type) {
	case saEntry:
		return e.Level, e.Val, true
	case *saBox:
		return e.level, e.view, true
	}
	return 0, nil, false
}

// asView decodes a simulated-view payload in either representation.
func asView(v any) (View, bool) {
	switch x := v.(type) {
	case View:
		return x, true
	case *viewBox:
		return x.view, true
	}
	return nil, false
}
