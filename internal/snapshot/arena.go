// Epoch-based recycling of snapshot memory. The machine-form object
// allocates, per Update, one *segment record plus the two slices backing the
// embedded View — the dominant allocation of the BG simulation, whose write
// path runs through this package. All of that memory has a provably bounded
// lifetime:
//
//   - A segment is reachable from shared memory only while its register
//     holds it. Once its writer overwrites it, the only remaining references
//     live in the collect buffers of scans that were already in flight at
//     the overwrite (a scan that starts later reads the register afresh and
//     can never see the old segment).
//   - A View's backing slices are owned by the segment embedding them —
//     except when a scan borrows a doubly-moved process's embedded view, in
//     which case the borrower's segment shares them (see viewLease).
//
// The Arena turns those bounds into reuse. It keeps one epoch counter that
// advances whenever a scan completes, and per-process tickets recording the
// epoch at which each in-flight scan started (a process runs at most one
// snapshot call at a time, so one slot per process suffices). A segment
// overwritten at epoch E goes onto the retired queue; it returns to the free
// list once every active scan started after E — i.e. once min(active start
// epochs) > E — at which point no collect buffer can still hold it.
// Embedded views that outlive their scan are pinned explicitly: the views
// are reference-counted leases, retained when an update embeds a borrowed
// view into its own segment and released when an embedding segment is
// reclaimed.
//
// Two safety valves keep the scheme total rather than merely fast:
//
//   - A crashed process can freeze a scan forever (its ticket never closes),
//     stalling reclamation. The retired queue is therefore capped: beyond
//     the cap the oldest entries are dropped to the garbage collector —
//     never reused, hence never corrupted — and recycling degrades to
//     allocation exactly where the model forces it to.
//   - Runner.Reset invokes ResetRecycler (the sim.Recycler contract): with
//     all registers cleared and all machines about to be rearmed or
//     rebuilt, nothing vended is reachable, so every tracked object returns
//     to its free list in bulk.
//     Pool-reused runners thus recycle across jobs, and leases held by
//     crashed writers or mid-run stops are reclaimed wholesale.
//
// The arena is runner-scoped (obtained through sim.RecyclerHost) and serial:
// every operation happens on the stepping goroutine. Runners with an
// observer get no arena at all — observers may retain written values, and
// the reference implementations stay allocation-per-write — so recycled and
// observed runs are bit-identical by construction, which the equivalence
// tests pin.

package snapshot

import (
	"math"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Shared is implemented by register values whose memory is recycled by their
// writer (the BG simulation's leased views and safe-agreement entries).
// The arena retains one reference per place a value is stored — a segment's
// Val, or a slot of an embedded leased view — and releases it when that
// place is reclaimed. Values start with one reference owned by their
// creator. All calls happen on the stepping goroutine.
type Shared interface {
	Retain()
	Release()
}

// retain bumps v's reference count if it is a recycled value.
func retain(v any) {
	if s, ok := v.(Shared); ok {
		s.Retain()
	}
}

// release drops a reference if v is a recycled value.
func release(v any) {
	if s, ok := v.(Shared); ok {
		s.Release()
	}
}

// viewLease is the reference-counted backing of an embedded View. It is
// created with one reference owned by the segment that embeds it; borrowing
// scans that hand the view to their own update pin it with another Retain,
// so the slices stay intact until the last embedding segment is reclaimed.
// The payload slots (vals) hold one retained reference each.
type viewLease struct {
	vals   []any
	seqs   []int
	refs   int32
	bucket *leaseBucket
}

func (l *viewLease) retain() { l.refs++ }

func (l *viewLease) release() {
	l.refs--
	if l.refs > 0 {
		return
	}
	if l.refs < 0 {
		panic("snapshot: view lease over-released")
	}
	for q := range l.vals {
		release(l.vals[q])
		l.vals[q] = nil
	}
	l.bucket.free = append(l.bucket.free, l)
}

// leaseBucket is the free list for leases of one slice length. Handles cache
// their bucket at bind time, so lease allocation is a slice pop.
type leaseBucket struct {
	arena *Arena
	size  int
	free  []*viewLease
	all   []*viewLease
}

func (b *leaseBucket) newLease() *viewLease {
	if n := len(b.free); n > 0 {
		l := b.free[n-1]
		b.free = b.free[:n-1]
		l.refs = 1
		b.arena.stats.LeasesReused++
		return l
	}
	l := &viewLease{
		vals:   make([]any, b.size),
		seqs:   make([]int, b.size),
		refs:   1,
		bucket: b,
	}
	if len(b.all) < leaseTrackCap {
		b.all = append(b.all, l)
	}
	b.arena.stats.LeasesNew++
	return l
}

const (
	// retireCap bounds the retired queue when reclamation stalls (a crashed
	// process holding a scan open); beyond it the oldest half is dropped to
	// the garbage collector.
	retireCap = 1 << 14
	// segTrackCap / leaseTrackCap bound the bulk-reset tracking lists;
	// objects beyond the cap simply become garbage at the next Reset.
	segTrackCap   = 1 << 16
	leaseTrackCap = 1 << 16
)

// retiredSeg is one overwritten segment awaiting its reclamation epoch.
type retiredSeg struct {
	seg   *segment
	epoch int64
}

// arenaKey identifies the snapshot arena in the runner's recycler registry.
var arenaKey = new(int)

// Arena recycles snapshot segments and view backings for one runner. See the
// package comment of this file for the epoch discipline. The zero duration
// of every operation off the scan-completion path keeps it out of the
// per-step profile: BeginScan is two stores, segment and lease allocation
// are slice pops, and reclamation work happens only when a scan ends.
type Arena struct {
	epoch   int64
	active  [procset.MaxProcs + 1]int64 // per-process scan start epoch; 0 = none
	nActive int
	maxProc procset.ID // highest process id that ever opened a ticket

	segFree []*segment
	segAll  []*segment

	retired     []retiredSeg
	retiredHead int

	buckets map[int]*leaseBucket

	stats ArenaStats
}

// ArenaStats counts arena activity, for tests and diagnostics.
type ArenaStats struct {
	// SegmentsNew / SegmentsReused split segment demand by origin.
	SegmentsNew, SegmentsReused int64
	// LeasesNew / LeasesReused split lease demand the same way.
	LeasesNew, LeasesReused int64
	// Retired counts segments queued for epoch-based reclamation.
	Retired int64
	// Reclaimed counts segments returned to the free list by the epoch rule.
	Reclaimed int64
	// DeadReclaimed counts segments of dead objects reclaimed directly from
	// their registers (see ReclaimValue).
	DeadReclaimed int64
	// Dropped counts retired segments abandoned to the GC by the cap.
	Dropped int64
	// Pins counts borrowed embedded views retained past their scan.
	Pins int64
	// ScansBegun / ScansCompleted count scan tickets opened (BeginScan) and
	// closed at an owned completion (EndScan); tickets closed by replacement
	// appear only in ScansBegun.
	ScansBegun, ScansCompleted int64
	// Resets counts bulk reclamations via ResetRecycler.
	Resets int64
}

// ArenaFor returns the runner-scoped arena behind regs, or nil when the
// runner does not permit value recycling (coroutine mode, or an observer is
// attached). Machine factories call it once at construction.
func ArenaFor(regs sim.Registry) *Arena {
	host, ok := regs.(sim.RecyclerHost)
	if !ok {
		return nil
	}
	v := host.Recycler(arenaKey, func() any { return newArena() })
	if v == nil {
		return nil
	}
	return v.(*Arena)
}

func newArena() *Arena {
	return &Arena{epoch: 1, buckets: make(map[int]*leaseBucket)}
}

// Stats returns a snapshot of the arena's activity counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

// StatsInto implements sim.StatsSource: the arena's recycling gauges under
// "arena."-prefixed keys, so Runner.RecyclerStats surfaces them to the
// observability plane without the caller knowing the arena exists.
func (a *Arena) StatsInto(dst map[string]int64) {
	s := &a.stats
	dst["arena.segments_new"] = s.SegmentsNew
	dst["arena.segments_reused"] = s.SegmentsReused
	dst["arena.leases_new"] = s.LeasesNew
	dst["arena.leases_reused"] = s.LeasesReused
	dst["arena.retired"] = s.Retired
	dst["arena.reclaimed"] = s.Reclaimed
	dst["arena.dead_reclaimed"] = s.DeadReclaimed
	dst["arena.dropped"] = s.Dropped
	dst["arena.pins"] = s.Pins
	dst["arena.scans_begun"] = s.ScansBegun
	dst["arena.scans_completed"] = s.ScansCompleted
	dst["arena.resets"] = s.Resets
	dst["arena.epoch"] = a.epoch
}

// bucket returns the lease free list for slices of the given length.
func (a *Arena) bucket(size int) *leaseBucket {
	b, ok := a.buckets[size]
	if !ok {
		b = &leaseBucket{arena: a, size: size}
		a.buckets[size] = b
	}
	return b
}

// newSegment leases a segment record. The caller must fill every field.
func (a *Arena) newSegment() *segment {
	if n := len(a.segFree); n > 0 {
		s := a.segFree[n-1]
		a.segFree = a.segFree[:n-1]
		a.stats.SegmentsReused++
		return s
	}
	s := &segment{}
	if len(a.segAll) < segTrackCap {
		a.segAll = append(a.segAll, s)
	}
	a.stats.SegmentsNew++
	return s
}

// BeginScan opens p's scan ticket: segments retired from here on stay alive
// at least until the ticket closes. At most one snapshot call per process
// is ever in flight, so the slot is simply overwritten — which is also how
// a ticket deliberately left open by a non-owned scan completion (see
// FusedCall.Feed) ends: the previous result's validity expires exactly
// when the process's next snapshot call begins. The epoch advances here as
// well as at EndScan, so reclamation makes progress even on scan-heavy
// stretches whose tickets close only by replacement.
func (a *Arena) BeginScan(p procset.ID) {
	a.stats.ScansBegun++
	if a.active[p] == 0 {
		a.nActive++
	}
	if p > a.maxProc {
		a.maxProc = p
	}
	a.epoch++
	a.active[p] = a.epoch
	a.reclaim()
}

// EndScan closes p's ticket, advances the epoch, and reclaims every retired
// segment no still-active scan can hold. Only scans whose result is already
// safe — owned results, protected by their fresh or pinned lease — close
// their ticket at completion; non-owned completions leave it open, because
// the unconsumed result may alias segments this very reclaim would free
// (the release zeroes lease slots), and their ticket instead dies at the
// process's next BeginScan.
func (a *Arena) EndScan(p procset.ID) {
	a.stats.ScansCompleted++
	if a.active[p] != 0 {
		a.active[p] = 0
		a.nActive--
	}
	a.epoch++
	a.reclaim()
}

// minActive returns the smallest start epoch among in-flight scans, or
// MaxInt64 when none is active.
func (a *Arena) minActive() int64 {
	if a.nActive == 0 {
		return math.MaxInt64
	}
	min := int64(math.MaxInt64)
	for p := procset.ID(1); p <= a.maxProc; p++ {
		if e := a.active[p]; e != 0 && e < min {
			min = e
		}
	}
	return min
}

// retire queues an overwritten segment for reclamation. Only its writer may
// call it, and only after the overwrite executed.
func (a *Arena) retire(seg *segment) {
	a.stats.Retired++
	a.retired = append(a.retired, retiredSeg{seg: seg, epoch: a.epoch})
	if len(a.retired)-a.retiredHead > retireCap {
		// Reclamation has stalled (a crashed process froze a scan). Abandon
		// the oldest half to the GC: never reused, so never corrupted.
		drop := (len(a.retired) - a.retiredHead) / 2
		a.stats.Dropped += int64(drop)
		a.retiredHead += drop
		a.compact()
	}
}

// reclaim pops retired segments whose epoch precedes every active scan.
func (a *Arena) reclaim() {
	if a.retiredHead == len(a.retired) {
		return
	}
	min := a.minActive()
	for a.retiredHead < len(a.retired) && a.retired[a.retiredHead].epoch < min {
		a.reclaimSeg(a.retired[a.retiredHead].seg)
		a.stats.Reclaimed++
		a.retired[a.retiredHead] = retiredSeg{}
		a.retiredHead++
	}
	if a.retiredHead == len(a.retired) {
		a.retired = a.retired[:0]
		a.retiredHead = 0
	} else if a.retiredHead > retireCap {
		a.compact()
	}
}

// compact slides the live tail of the retired queue to the front.
func (a *Arena) compact() {
	n := copy(a.retired, a.retired[a.retiredHead:])
	a.retired = a.retired[:n]
	a.retiredHead = 0
}

// ReclaimValue reclaims the segment behind a dead register's taken value
// (see sim.RecyclerHost.TakeValue), straight to the free list: the caller
// guarantees the whole object is dead — every process has moved past it, so
// no scan can be holding the segment. The BG simulation reclaims the
// register groups of dead safe agreement objects this way. Nil (a register
// that was never written) is a no-op.
func (a *Arena) ReclaimValue(v any) {
	if v == nil {
		return
	}
	a.reclaimSeg(decodeSegment(v))
	a.stats.DeadReclaimed++
}

// reclaimSeg releases everything a segment owns and returns it to the free
// list: one reference on its Val payload and one on its embedded-view lease
// (whose own death releases the lease's payload slots).
func (a *Arena) reclaimSeg(seg *segment) {
	release(seg.Val)
	if seg.lease != nil {
		seg.lease.release()
	}
	seg.Seq, seg.Val, seg.Emb, seg.lease = 0, nil, View{}, nil
	a.segFree = append(a.segFree, seg)
}

// ResetRecycler implements sim.Recycler: bulk reclamation at Runner.Reset,
// when no vended object is reachable any more. Every tracked segment and
// lease returns to its free list; epoch bookkeeping restarts.
func (a *Arena) ResetRecycler() {
	a.epoch = 1
	a.active = [procset.MaxProcs + 1]int64{}
	a.nActive = 0
	a.retired = a.retired[:0]
	a.retiredHead = 0
	a.segFree = a.segFree[:0]
	for _, s := range a.segAll {
		s.Seq, s.Val, s.Emb, s.lease = 0, nil, View{}, nil
		a.segFree = append(a.segFree, s)
	}
	for _, b := range a.buckets {
		b.free = b.free[:0]
		for _, l := range b.all {
			clear(l.vals)
			l.refs = 0
			b.free = append(b.free, l)
		}
	}
	a.stats.Resets++
}
