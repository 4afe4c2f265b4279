// Package obs is the observability plane over the set-timeliness engine:
// an online timeliness-graph monitor (this file), the batch relations
// table of a whole schedule (HeldClasses, held.go: a walk along the
// Observation-3 staircase whose every class query is one bit-sliced pass
// over the schedule, 64 candidate pairs per word), debug HTTP serving
// (pprof + expvar, http.go), and helpers around the engine's counter
// blocks and flight recorder. Everything here observes; nothing here may
// change a run — the engine's fast paths stay bit-identical and
// allocation-free whether or not the plane is attached.
//
// The Monitor answers the paper's central question — *which set is timely
// right now, with what bound?* (Definition 1) — while a run unfolds,
// instead of by batch relation extraction after it ends. A P-free window
// counts the steps of R = Q∖P only, so the monitor keeps its state per
// tracked P rather than per (P, Q) pair: for each distinct R of P's tracked
// pairs, the largest R-count of any closed P-free window. Counts are kept
// per process: every process's step count, and each process's snapshot of
// them at its own last step, stamped with that step's index. P's last step
// is its most recently stamped member's, so P's open window starts at that
// stamp, and that member's snapshot holds the counts as they stood then. A
// step by x closes the open window of exactly the P's containing x; a query
// adds the still-open window (current counts minus that snapshot) to the
// stored maximum. A closing window holds only steps of processes outside P,
// so none of its R-counts exceeds its length; when that length is at most
// P's smallest stored maximum over its nonempty R's (thresh), no maximum
// can rise. No window of a P containing x is longer than the gap since x's
// own last step, so one test per step, that gap against a lower bound on
// the thresholds of x's P's, skips them all; on a long run the maxima soon
// outgrow most gaps, so most steps only bump a count and copy the counts
// into x's snapshot. The other steps visit x's P's, each window start one
// max over a smaller P's, and sum R-counts only for a window that outgrew
// P's threshold. What a configuration tracks (classes, P's, R lists, the
// names Graph reports) is an immutable layout, built once per full family
// and shared by every monitor of it. This is the incremental extraction of
// the timeliness graph of Delporte-Gallet et al. (arXiv:1003.1058), and it
// answers exactly sched.MaxQGap of the observed prefix, which the
// equivalence and fuzz tests pin.
package obs

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// N is the system size.
	N int
	// Sizes lists the (i, j) size classes to track, i ≤ j (the paper's
	// S^i_{j,n} family). Empty means every class with 1 ≤ i ≤ j ≤ N, which
	// is only permitted for N ≤ 6 — the class count is exponential in N, so
	// larger systems must name the classes they care about.
	Sizes [][2]int
}

// defaultSizesMaxN bounds the system size for which the full class family
// is tracked implicitly; it matches the batch extractor's range
// (experiments.RunRelationsCampaign supports 2 ≤ n ≤ 6).
const defaultSizesMaxN = 6

// fullLayouts[n] builds the layout of the full family at n once, on first
// use, and hands every later caller the same one.
var fullLayouts = func() (f [defaultSizesMaxN + 1]func() (*layout, error)) {
	for n := 1; n <= defaultSizesMaxN; n++ {
		f[n] = sync.OnceValues(func() (*layout, error) {
			var sizes [][2]int
			for i := 1; i <= n; i++ {
				for j := i; j <= n; j++ {
					sizes = append(sizes, [2]int{i, j})
				}
			}
			return newLayout(n, sizes)
		})
	}
	return f
}()

// rSet is one distinct R = Q∖P among the tracked pairs of a P. The R-count
// of P's open window is the parent's count (R minus its lowest member, when
// that set is tracked for P too) plus the open count of that lowest member,
// so over a full power set every count costs one addition.
type rSet struct {
	r      procset.Set
	parent int32 // index of r minus its lowest member in the same list, or -1
	low    uint8 // index in Monitor.counts of r's lowest member
}

// pRef is one P in a process x's list of the P's containing it. P's window
// start is the larger of its parent's (P minus add, a P containing x too)
// and add's last step; with no tracked parent it is a scan of P's members.
type pRef struct {
	k      int32 // index of P in layout.ps
	parent int32 // position of P minus add in the same list, or -1
	add    uint8 // the member P adds to its parent
}

// classIndex is one tracked size class (i, j): its P's (indices into
// layout.ps) and Q's in the canonical procset.KSubsets order — the order
// sched.BestPair searches in, so tie-breaking agrees — and the Q's names.
// rs[a*len(qs)+b] is the index of qs[b]∖P among the R sets of the a-th P.
type classIndex struct {
	i, j   int
	ps     []int32
	qs     []procset.Set
	qNames []string
	rs     []int32
}

// layout is what one configuration tracks. It is immutable once built, so
// monitors of one configuration share it across goroutines.
type layout struct {
	n       int
	classes []classIndex
	// ps is every tracked P in ascending order and names[k] is ps[k]'s
	// String. P k's distinct R sets, ascending, are rs[rOff[k]:rOff[k+1]],
	// and thresh0[k] is its threshold while every maximum is 0.
	ps      []procset.Set
	names   []string
	rOff    []int32
	rs      []rSet
	thresh0 []int64
	// byProc[x-1] lists the P's containing x in ps order, each parent
	// ahead of its children; maxBy is the longest list.
	byProc [][]pRef
	maxBy  int
}

// Monitor incrementally maintains the timeliness graph of an observed
// schedule prefix. It is not safe for concurrent use; feed and query it
// from one goroutine (or under one lock, as internal/live does).
type Monitor struct {
	l     *layout
	steps int
	// counts[x-1] is the number of observed steps of process x. Row x of
	// snaps (n counts each) holds the counts as they stood at x's last
	// step, and snapStep[x] that step's index; row 0 is the all-zero start,
	// the snapshot of a P that has not stepped. threshMin[x-1] is at most
	// the smallest thresh of the P's containing x (see ObserveBlock).
	counts, snaps, snapStep, threshMin []int64
	// maxes[rOff[k]+r] is the largest R-count of any closed window of P k
	// free of P for its r-th R set, and thresh[k] the smallest of P k's
	// maxima over its nonempty R's (math.MaxInt64 when there is none): a
	// closing window no longer than thresh cannot raise any maximum.
	maxes, thresh []int64
	// open (per R set) and start (per position in a byProc list) are
	// scratch.
	open, start []int64
	// fresh is what Reset zeroes: counts through maxes.
	fresh []int64
}

// NewMonitor builds a monitor. See MonitorConfig for the contract.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.N < 1 || cfg.N > procset.MaxProcs {
		return nil, fmt.Errorf("obs: n = %d out of range [1,%d]", cfg.N, procset.MaxProcs)
	}
	var (
		l   *layout
		err error
	)
	switch {
	case len(cfg.Sizes) > 0:
		l, err = newLayout(cfg.N, cfg.Sizes)
	case cfg.N > defaultSizesMaxN:
		err = fmt.Errorf("obs: tracking all size classes is limited to n ≤ %d (n = %d); set MonitorConfig.Sizes", defaultSizesMaxN, cfg.N)
	default:
		l, err = fullLayouts[cfg.N]()
	}
	if err != nil {
		return nil, err
	}
	// Every count lies in one allocation; Reset zeroes its head, counts
	// through maxes.
	n, nr := l.n, len(l.rs)
	buf := make([]int64, 3*n+1+(n+1)*n+2*nr+len(l.ps)+l.maxBy)
	fresh := buf[:3*n+1+(n+1)*n+nr]
	take := func(size int) []int64 {
		s := buf[:size:size]
		buf = buf[size:]
		return s
	}
	m := &Monitor{l: l, fresh: fresh,
		counts: take(n), snaps: take((n + 1) * n), snapStep: take(n + 1), threshMin: take(n), maxes: take(nr),
		thresh: take(len(l.ps)), open: take(nr), start: take(l.maxBy)}
	copy(m.thresh, l.thresh0)
	return m, nil
}

// newLayout indexes the size classes sizes of Πn.
func newLayout(n int, sizes [][2]int) (*layout, error) {
	l := &layout{n: n}
	names := map[int][]string{} // the names of Πn's j-subsets, per j
	for _, s := range sizes {
		i, j := s[0], s[1]
		if i < 1 || j < i || j > n {
			return nil, fmt.Errorf("obs: size class (%d,%d) invalid for n = %d (need 1 ≤ i ≤ j ≤ n)", i, j, n)
		}
		if slices.ContainsFunc(l.classes, func(cl classIndex) bool { return cl.i == i && cl.j == j }) {
			continue
		}
		qs := procset.KSubsets(n, j)
		if names[j] == nil {
			names[j] = make([]string, len(qs))
			for b, q := range qs {
				names[j][b] = q.String()
			}
		}
		l.classes = append(l.classes, classIndex{i: i, j: j, qs: qs, qNames: names[j]})
	}
	for _, cl := range l.classes {
		l.ps = append(l.ps, procset.KSubsets(n, cl.i)...)
	}
	slices.Sort(l.ps)
	l.ps = slices.Compact(l.ps)

	// P's distinct R sets are Q∖P over the Q's of every tracked class whose
	// P-size is |P|, sorted and compacted; all of them go in one flat slice.
	l.names = make([]string, len(l.ps))
	l.rOff = make([]int32, len(l.ps)+1)
	l.thresh0 = make([]int64, len(l.ps))
	l.byProc = make([][]pRef, n)
	var rbuf []procset.Set
	for k, p := range l.ps {
		l.names[k] = p.String()
		rbuf = rbuf[:0]
		for _, cl := range l.classes {
			if cl.i == p.Size() {
				for _, q := range cl.qs {
					rbuf = append(rbuf, q&^p)
				}
			}
		}
		slices.Sort(rbuf)
		rbuf = slices.Compact(rbuf)
		off := len(l.rs)
		for _, r := range rbuf {
			l.rs = append(l.rs, indexR(r, l.rs[off:]))
		}
		l.rOff[k+1] = int32(len(l.rs))
		if rbuf[len(rbuf)-1] == 0 {
			l.thresh0[k] = math.MaxInt64 // P's only R is ∅
		}
		for x := 1; x <= n; x++ {
			if p.Contains(procset.ID(x)) {
				l.byProc[x-1] = append(l.byProc[x-1], l.pRef(x, k))
			}
		}
	}
	for _, refs := range l.byProc {
		l.maxBy = max(l.maxBy, len(refs))
	}
	for ci := range l.classes {
		cl := &l.classes[ci]
		pk := procset.KSubsets(n, cl.i)
		cl.ps = make([]int32, len(pk))
		cl.rs = make([]int32, 0, len(pk)*len(cl.qs))
		for a, p := range pk {
			k := l.pIndex(p)
			cl.ps[a] = int32(k)
			for _, q := range cl.qs {
				cl.rs = append(cl.rs, int32(findR(l.rsOf(k), q&^p)))
			}
		}
	}
	return l, nil
}

// pRef describes the k-th P, which contains x, for x's list; the P's ahead
// of it in ps are already listed.
func (l *layout) pRef(x, k int) pRef {
	p := l.ps[k]
	e := pRef{k: int32(k), parent: -1}
	rest := uint64(p &^ (1 << (x - 1)))
	if rest == 0 {
		return e
	}
	add := 63 - bits.LeadingZeros64(rest)
	e.add = uint8(add + 1)
	if pk := l.pIndex(p &^ (1 << add)); pk >= 0 {
		refs := l.byProc[x-1]
		pos, _ := slices.BinarySearchFunc(refs, int32(pk), func(e pRef, t int32) int { return cmp.Compare(e.k, t) })
		e.parent = int32(pos)
	}
	return e
}

// indexR describes r given the smaller R sets already indexed for its P.
func indexR(r procset.Set, prev []rSet) rSet {
	e := rSet{r: r, parent: -1}
	if r == 0 {
		return e
	}
	e.low = uint8(bits.TrailingZeros64(uint64(r)))
	e.parent = int32(findR(prev, r&(r-1)))
	return e
}

// pIndex returns the index of p in l.ps, or -1 when p is not tracked.
func (l *layout) pIndex(p procset.Set) int {
	k, ok := slices.BinarySearch(l.ps, p)
	if !ok {
		return -1
	}
	return k
}

// rsOf returns the R sets of the k-th P.
func (l *layout) rsOf(k int) []rSet { return l.rs[l.rOff[k]:l.rOff[k+1]] }

// findR returns the index of r in the ascending list rs, or -1.
func findR(rs []rSet, r procset.Set) int {
	k, ok := slices.BinarySearchFunc(rs, r, func(e rSet, t procset.Set) int { return cmp.Compare(e.r, t) })
	if !ok {
		return -1
	}
	return k
}

// N returns the system size.
func (m *Monitor) N() int { return m.l.n }

// Steps returns the number of observed steps.
func (m *Monitor) Steps() int { return m.steps }

// Observe feeds one step.
func (m *Monitor) Observe(p procset.ID) {
	block := [1]procset.ID{p}
	m.ObserveBlock(block[:])
}

// ObserveBlock feeds a block of steps — the shape sched.Tap delivers, so
// wiring a monitor to a run is one line:
//
//	runner.Run(sched.Tap(src, monitor.ObserveBlock), maxSteps, every, stop)
func (m *Monitor) ObserveBlock(block []procset.ID) {
	n := m.l.n
	counts, snapStep, threshMin := m.counts[:n], m.snapStep[:n+1], m.threshMin[:n]
	for _, p := range block {
		if p < 1 || procset.ID(n) < p {
			panic(fmt.Sprintf("obs: step by %v outside Π%d", p, n))
		}
		m.steps++
		counts[p-1]++
		// A step by p closes the open window of every P containing p, and
		// none of those is longer than the gap since p's own last step: a
		// gap within threshMin raises no maximum.
		if int64(m.steps-1)-snapStep[p] > threshMin[p-1] {
			m.closeWindows(p)
		}
		row := m.snaps[int(p)*n:][:len(counts)]
		for x, c := range counts {
			row[x] = c
		}
		snapStep[p] = int64(m.steps)
	}
}

// closeWindows folds the window that p's step closes for each P containing
// p and leaves in threshMin[p-1] the smallest of their thresholds. It runs
// before p's snapshot is retaken, so every window start is still the
// member's last step before this one.
func (m *Monitor) closeWindows(p procset.ID) {
	refs := m.l.byProc[p-1]
	start, snapStep, thresh := m.start[:len(refs)], m.snapStep, m.thresh
	now := int64(m.steps - 1)
	low := int64(math.MaxInt64)
	for at, e := range refs {
		var s int64
		if e.parent >= 0 {
			s = max(start[e.parent], snapStep[e.add])
		} else {
			s, _ = m.last(m.l.ps[e.k])
		}
		start[at] = s
		t := thresh[e.k]
		if now-s > t {
			t = m.fold(int(e.k))
		}
		low = min(low, t)
	}
	m.threshMin[p-1] = low
}

// last returns P's last step (0 before its first) and the counts as they
// stood then: its most recently stamped member's snapshot.
func (m *Monitor) last(p procset.Set) (int64, []int64) {
	x := 0
	for b := uint64(p); b != 0; b &= b - 1 {
		if y := bits.TrailingZeros64(b) + 1; m.snapStep[y] > m.snapStep[x] {
			x = y
		}
	}
	return m.snapStep[x], m.snaps[x*m.l.n:][:m.l.n]
}

// fold raises each of P k's maxima to the R-counts of its window closing
// now, recomputes its threshold when one rose, and returns the threshold.
func (m *Monitor) fold(k int) int64 {
	lo, hi := m.l.rOff[k], m.l.rOff[k+1]
	rs, maxes := m.l.rs[lo:hi], m.maxes[lo:hi]
	_, last := m.last(m.l.ps[k])
	rose := false
	for r, c := range openCounts(rs, m.open[lo:hi], m.counts, last) {
		if c > maxes[r] {
			maxes[r] = c
			rose = true
		}
	}
	if rose {
		m.thresh[k] = minMax(rs, maxes)
	}
	return m.thresh[k]
}

// minMax returns the smallest of maxes over the nonempty R sets of rs, or
// math.MaxInt64 when there is none. R = ∅ is left out: its count is
// always 0.
func minMax(rs []rSet, maxes []int64) int64 {
	t := int64(math.MaxInt64)
	for r, e := range rs {
		if e.r != 0 {
			t = min(t, maxes[r])
		}
	}
	return t
}

// openCounts returns sums filled with, for each R set of rs, the number of
// R-steps since last, the counts at P's last step.
func openCounts(rs []rSet, sums, counts, last []int64) []int64 {
	for k, e := range rs {
		if e.parent >= 0 {
			sums[k] = sums[e.parent] + counts[e.low] - last[e.low]
			continue
		}
		var c int64
		for r := uint64(e.r); r != 0; r &= r - 1 {
			x := bits.TrailingZeros64(r)
			c += counts[x] - last[x]
		}
		sums[k] = c
	}
	return sums
}

// Reset reverts the monitor to its initial state (all gaps zero, no steps
// observed), retaining its configuration and allocations.
func (m *Monitor) Reset() {
	m.steps = 0
	// Every snapshot row is the all-zero start again, and a zero threshMin
	// is a lower bound on any threshold.
	clear(m.fresh)
	copy(m.thresh, m.l.thresh0)
}

// mustClass returns the tracked class (i, j) and panics when it is not
// tracked (a configuration error, not a runtime condition).
func (m *Monitor) mustClass(i, j int) *classIndex {
	for ci := range m.l.classes {
		if m.l.classes[ci].i == i && m.l.classes[ci].j == j {
			return &m.l.classes[ci]
		}
	}
	panic(fmt.Sprintf("obs: size class (%d,%d) not tracked", i, j))
}

// MaxQGap returns the maximal number of Q-steps in any P-free window of the
// observed prefix — sched.MaxQGap of the same prefix, answered online. The
// pair's size class must be tracked; it panics otherwise (a configuration
// error, not a runtime condition).
func (m *Monitor) MaxQGap(p, q procset.Set) int {
	m.mustClass(p.Size(), q.Size())
	k := m.l.pIndex(p)
	if k < 0 {
		panic(fmt.Sprintf("obs: pair (%v,%v) not tracked", p, q))
	}
	r := findR(m.l.rsOf(k), q&^p)
	if r < 0 {
		panic(fmt.Sprintf("obs: pair (%v,%v) not tracked", p, q))
	}
	// The trailing (still open) window counts, as in the batch extractor.
	return int(m.gaps(k)[r])
}

// MinBound returns the smallest Definition 1 bound with which P is timely
// w.r.t. Q on the observed prefix (sched.MinBound, online).
func (m *Monitor) MinBound(p, q procset.Set) int { return m.MaxQGap(p, q) + 1 }

// IsTimely reports whether P is timely w.r.t. Q with the given bound on the
// observed prefix (sched.IsTimely, online).
func (m *Monitor) IsTimely(p, q procset.Set, bound int) bool {
	if bound < 1 {
		return false
	}
	return m.MaxQGap(p, q) < bound
}

// Best returns the pair of the tracked class (i, j) with the smallest
// minimal bound, breaking ties exactly like sched.BestPair (canonical set
// order on P then Q). It panics when the class is not tracked.
func (m *Monitor) Best(i, j int) sched.TimelyPair {
	cl := m.mustClass(i, j)
	for _, k := range cl.ps {
		m.gaps(int(k))
	}
	a, b, bound := m.best(cl)
	return sched.TimelyPair{P: m.l.ps[cl.ps[a]], Q: cl.qs[b], MinBound: bound}
}

// gaps leaves in P k's span of open, and returns, for each of its R sets,
// the largest R-count of any P-free window so far, the open one included.
func (m *Monitor) gaps(k int) []int64 {
	lo, hi := m.l.rOff[k], m.l.rOff[k+1]
	_, last := m.last(m.l.ps[k])
	open := openCounts(m.l.rs[lo:hi], m.open[lo:hi], m.counts, last)
	for r, c := range m.maxes[lo:hi] {
		open[r] = max(open[r], c)
	}
	return open
}

// best finds the pair of cl with the smallest bound once gaps has run for
// each of its P's: the positions of its P in cl.ps and Q in cl.qs.
func (m *Monitor) best(cl *classIndex) (a, b, bound int) {
	bound = math.MaxInt
	for pa, k := range cl.ps {
		open := m.open[m.l.rOff[k]:m.l.rOff[k+1]]
		for qb, r := range cl.rs[pa*len(cl.qs) : (pa+1)*len(cl.qs)] {
			if bd := int(open[r]) + 1; bd < bound {
				a, b, bound = pa, qb, bd
			}
		}
	}
	return a, b, bound
}

// InSystem reports whether the observed prefix (extended arbitrarily while
// keeping the witnessed bounds) belongs to S^i_{j,n}: some tracked i-set is
// timely w.r.t. some j-set with the given bound — sched.InSystem, online.
func (m *Monitor) InSystem(i, j, bound int) bool {
	if i > j {
		return false
	}
	return m.Best(i, j).MinBound <= bound
}

// SystemStatus is one row of the online timeliness graph: whether the class
// S^i_{j,n} currently holds with the probed bound, and the best witness.
type SystemStatus struct {
	I int `json:"i"`
	J int `json:"j"`
	// Held reports Best.MinBound ≤ the probed bound.
	Held bool `json:"held"`
	// Best is the class's best pair and its minimal witnessed bound.
	Best sched.TimelyPair `json:"-"`
	// BestP/BestQ/MinBound mirror Best for JSON emission.
	BestP    string `json:"p"`
	BestQ    string `json:"q"`
	MinBound int    `json:"min_bound"`
}

// Graph returns the online timeliness graph over every tracked class, in
// construction order: which systems of the family the observed prefix
// belongs to with the probed bound, each with its best witness pair. Its
// one allocation is the result; the names come from the layout.
func (m *Monitor) Graph(bound int) []SystemStatus {
	l := m.l
	for k := range l.ps {
		m.gaps(k)
	}
	out := make([]SystemStatus, len(l.classes))
	for ci := range l.classes {
		cl := &l.classes[ci]
		a, b, best := m.best(cl)
		out[ci] = SystemStatus{
			I: cl.i, J: cl.j,
			Held:     best <= bound,
			Best:     sched.TimelyPair{P: l.ps[cl.ps[a]], Q: cl.qs[b], MinBound: best},
			BestP:    l.names[cl.ps[a]],
			BestQ:    cl.qNames[b],
			MinBound: best,
		}
	}
	return out
}
