// Package obs is the observability plane over the set-timeliness engine:
// an online timeliness-graph monitor (this file), the batch relations
// table of a whole schedule (HeldClasses, held.go), debug HTTP serving
// (pprof + expvar, http.go), and helpers around the engine's counter
// blocks and flight recorder. Everything here observes; nothing here may
// change a run — the engine's fast paths stay bit-identical and
// allocation-free whether or not the plane is attached.
//
// The Monitor answers the paper's central question — *which set is timely
// right now, with what bound?* (Definition 1) — while a run unfolds,
// instead of by batch relation extraction after it ends. A P-free window
// counts the steps of R = Q∖P only, so the monitor keeps its state per
// tracked P rather than per (P, Q) pair: the member that took P's last
// step and, for each distinct R of P's tracked pairs, the largest R-count
// of any closed P-free window. Counts are kept per process: every process's
// step count, and each process's snapshot of them at its own last step —
// which, for P's last stepper, are the counts at P's last step. A step by x
// closes the open window of exactly the P's containing x; a query adds the
// still-open window (current counts minus that snapshot) to the stored
// maximum. A closing window holds only steps of processes outside P, so
// none of its R-counts exceeds its length; when that length is at most P's
// smallest stored maximum over its nonempty R's, no maximum can rise and
// the step skips P's R-sums. On a long run the maxima soon outgrow most
// windows, so most steps fold nothing and only copy the counts, once.
// This is the incremental extraction of the timeliness graph of
// Delporte-Gallet et al. (arXiv:1003.1058), and it answers exactly
// sched.MaxQGap of the observed prefix, which the equivalence and fuzz
// tests pin.
package obs

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

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

// rSet is one distinct R = Q∖P among the tracked pairs of a P. The R-count
// of P's open window is the parent's count (R minus its lowest member, when
// that set is tracked for P too) plus the open count of that lowest member,
// so over a full power set every count costs one addition.
type rSet struct {
	r      procset.Set
	parent int32 // index of r minus its lowest member in the same list, or -1
	low    uint8 // index in Monitor.counts of r's lowest member
}

// pState is the online state of one tracked P.
type pState struct {
	p procset.Set
	// lastBy is the member that took P's last step, or 0 before P's first
	// step; Monitor.snap(lastBy) holds the counts as they stood then.
	lastBy procset.ID
	// thresh is the smallest maximum over P's nonempty R sets, or
	// math.MaxInt64 when P's only R is ∅: a closing window no longer than
	// thresh cannot raise any maximum (see Observe).
	thresh int64
	// rs lists P's distinct R sets in ascending order; maxes[k] is the
	// largest rs[k]-count of any closed P-free window. open is scratch for
	// the counts of the open window (see openCounts and gaps).
	rs    []rSet
	maxes []int64
	open  []int64
}

// classIndex is one tracked size class (i, j): its P's (indices into
// Monitor.ps) and Q's in the canonical procset.KSubsets order — the order
// sched.BestPair searches in, so tie-breaking agrees. rs[a*len(qs)+b] is
// the index of qs[b]∖P among the R sets of the a-th P.
type classIndex struct {
	i, j int
	ps   []int32
	qs   []procset.Set
	rs   []int32
}

// Monitor incrementally maintains the timeliness graph of an observed
// schedule prefix. It is not safe for concurrent use; feed and query it
// from one goroutine (or under one lock, as internal/live does).
type Monitor struct {
	n       int
	steps   int
	classes []classIndex

	// counts[x-1] is the number of observed steps of process x; ps is every
	// tracked P in ascending order, and byProc[x-1] the indices of the P's
	// containing x. Row x of snaps (n counts each) holds the counts as they
	// stood at x's last step, and snapStep[x] that step's index; row 0 is
	// the all-zero start, the snapshot of a P that has not stepped.
	counts   []int64
	ps       []pState
	byProc   [][]int32
	snaps    []int64
	snapStep []int
}

// NewMonitor builds a monitor. See MonitorConfig for the contract.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.N < 1 || cfg.N > procset.MaxProcs {
		return nil, fmt.Errorf("obs: n = %d out of range [1,%d]", cfg.N, procset.MaxProcs)
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		if cfg.N > defaultSizesMaxN {
			return nil, fmt.Errorf("obs: tracking all size classes is limited to n ≤ %d (n = %d); set MonitorConfig.Sizes", defaultSizesMaxN, cfg.N)
		}
		for i := 1; i <= cfg.N; i++ {
			for j := i; j <= cfg.N; j++ {
				sizes = append(sizes, [2]int{i, j})
			}
		}
	}
	m := &Monitor{n: cfg.N, counts: make([]int64, cfg.N),
		snaps: make([]int64, (cfg.N+1)*cfg.N), snapStep: make([]int, cfg.N+1)}
	for _, s := range sizes {
		i, j := s[0], s[1]
		if i < 1 || j < i || j > cfg.N {
			return nil, fmt.Errorf("obs: size class (%d,%d) invalid for n = %d (need 1 ≤ i ≤ j ≤ n)", i, j, cfg.N)
		}
		if !slices.ContainsFunc(m.classes, func(cl classIndex) bool { return cl.i == i && cl.j == j }) {
			m.classes = append(m.classes, classIndex{i: i, j: j, qs: procset.KSubsets(cfg.N, j)})
		}
	}
	var pset []procset.Set
	for _, cl := range m.classes {
		pset = append(pset, procset.KSubsets(cfg.N, cl.i)...)
	}
	slices.Sort(pset)
	pset = slices.Compact(pset)

	// P's distinct R sets are Q∖P over the Q's of every tracked class whose
	// P-size is |P|, sorted and compacted; all of them go in one flat slice.
	m.ps = make([]pState, len(pset))
	m.byProc = make([][]int32, cfg.N)
	var rs []rSet
	var rbuf []procset.Set
	off := make([]int, len(pset)+1)
	for k, p := range pset {
		rbuf = rbuf[:0]
		for _, cl := range m.classes {
			if cl.i == p.Size() {
				for _, q := range cl.qs {
					rbuf = append(rbuf, q&^p)
				}
			}
		}
		slices.Sort(rbuf)
		rbuf = slices.Compact(rbuf)
		off[k] = len(rs)
		for _, r := range rbuf {
			rs = append(rs, indexR(r, rs[off[k]:]))
		}
		off[k+1] = len(rs)
		m.ps[k] = pState{p: p}
		for x := 0; x < cfg.N; x++ {
			if p.Contains(procset.ID(x + 1)) {
				m.byProc[x] = append(m.byProc[x], int32(k))
			}
		}
	}
	maxes, open := make([]int64, len(rs)), make([]int64, len(rs))
	for k := range m.ps {
		m.ps[k].rs = rs[off[k]:off[k+1]:off[k+1]]
		m.ps[k].maxes = maxes[off[k]:off[k+1]:off[k+1]]
		m.ps[k].open = open[off[k]:off[k+1]:off[k+1]]
		m.ps[k].thresh = minMax(&m.ps[k])
	}
	for ci := range m.classes {
		cl := &m.classes[ci]
		pk := procset.KSubsets(cfg.N, cl.i)
		cl.ps = make([]int32, len(pk))
		cl.rs = make([]int32, 0, len(pk)*len(cl.qs))
		for a, p := range pk {
			cl.ps[a] = int32(m.pIndex(p))
			ps := &m.ps[cl.ps[a]]
			for _, q := range cl.qs {
				cl.rs = append(cl.rs, int32(findR(ps.rs, q&^p)))
			}
		}
	}
	return m, nil
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

// pIndex returns the index of p in m.ps, or -1 when p is not tracked.
func (m *Monitor) pIndex(p procset.Set) int {
	k, ok := slices.BinarySearchFunc(m.ps, p, func(e pState, t procset.Set) int { return cmp.Compare(e.p, t) })
	if !ok {
		return -1
	}
	return k
}

// findR returns the index of r in the ascending list rs, or -1.
func findR(rs []rSet, r procset.Set) int {
	k, ok := slices.BinarySearchFunc(rs, r, func(e rSet, t procset.Set) int { return cmp.Compare(e.r, t) })
	if !ok {
		return -1
	}
	return k
}

// N returns the system size.
func (m *Monitor) N() int { return m.n }

// Steps returns the number of observed steps.
func (m *Monitor) Steps() int { return m.steps }

// Observe feeds one step.
func (m *Monitor) Observe(p procset.ID) {
	if p < 1 || procset.ID(m.n) < p {
		panic(fmt.Sprintf("obs: step by %v outside Π%d", p, m.n))
	}
	m.steps++
	m.counts[p-1]++
	// A step by p closes the open window of every P containing p. That
	// window holds the steps since P's last step (lastBy's), all by
	// processes outside P, so each of its R-counts is at most its length:
	// when the length is within thresh, no maximum can rise.
	for _, k := range m.byProc[p-1] {
		ps := &m.ps[k]
		if int64(m.steps-1-m.snapStep[ps.lastBy]) > ps.thresh {
			ps.fold(m.counts, m.snap(ps.lastBy))
		}
		ps.lastBy = p
	}
	copy(m.snap(p), m.counts)
	m.snapStep[p] = m.steps
}

// snap returns the counts as they stood at x's last step (row 0: none).
func (m *Monitor) snap(x procset.ID) []int64 { return m.snaps[int(x)*m.n:][:m.n:m.n] }

// fold raises each of P's maxima to the R-counts of the window closing
// since last, and recomputes thresh when one rose.
func (ps *pState) fold(counts, last []int64) {
	rose := false
	for r, c := range openCounts(ps, counts, last) {
		if c > ps.maxes[r] {
			ps.maxes[r] = c
			rose = true
		}
	}
	if rose {
		ps.thresh = minMax(ps)
	}
}

// minMax returns the smallest maximum over P's nonempty R sets, or
// math.MaxInt64 when there is none. R = ∅ is left out: its count is
// always 0.
func minMax(ps *pState) int64 {
	t := int64(math.MaxInt64)
	for r, e := range ps.rs {
		if e.r != 0 {
			t = min(t, ps.maxes[r])
		}
	}
	return t
}

// openCounts returns ps.open filled with, for each R set of ps, the number
// of R-steps since last, the counts at P's last step.
func openCounts(ps *pState, counts, last []int64) []int64 {
	sums := ps.open
	for k, e := range ps.rs {
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

// ObserveBlock feeds a block of steps — the shape sched.Tap delivers, so
// wiring a monitor to a run is one line:
//
//	runner.Run(sched.Tap(src, monitor.ObserveBlock), maxSteps, every, stop)
func (m *Monitor) ObserveBlock(block []procset.ID) {
	for _, p := range block {
		m.Observe(p)
	}
}

// Reset reverts the monitor to its initial state (all gaps zero, no steps
// observed), retaining its configuration and allocations.
func (m *Monitor) Reset() {
	m.steps = 0
	clear(m.counts)
	// Every row is the all-zero start again, whichever member lastBy names.
	clear(m.snaps)
	clear(m.snapStep)
	for k := range m.ps {
		ps := &m.ps[k]
		clear(ps.maxes)
		ps.thresh = minMax(ps)
	}
}

// mustClass returns the tracked class (i, j) and panics when it is not
// tracked (a configuration error, not a runtime condition).
func (m *Monitor) mustClass(i, j int) *classIndex {
	for ci := range m.classes {
		if m.classes[ci].i == i && m.classes[ci].j == j {
			return &m.classes[ci]
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
	k := m.pIndex(p)
	if k < 0 {
		panic(fmt.Sprintf("obs: pair (%v,%v) not tracked", p, q))
	}
	ps := &m.ps[k]
	r := findR(ps.rs, q&^p)
	if r < 0 {
		panic(fmt.Sprintf("obs: pair (%v,%v) not tracked", p, q))
	}
	// The trailing (still open) window counts, as in the batch extractor.
	return int(max(ps.maxes[r], openCounts(ps, m.counts, m.snap(ps.lastBy))[r]))
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
		m.gaps(&m.ps[k])
	}
	return m.best(cl)
}

// gaps leaves in ps.open, for each R set of ps, the largest R-count of any
// P-free window so far, the open one included.
func (m *Monitor) gaps(ps *pState) {
	for r, c := range openCounts(ps, m.counts, m.snap(ps.lastBy)) {
		ps.open[r] = max(c, ps.maxes[r])
	}
}

// best is Best over cl once gaps has run for each of its P's.
func (m *Monitor) best(cl *classIndex) sched.TimelyPair {
	best := sched.TimelyPair{MinBound: math.MaxInt}
	for a, k := range cl.ps {
		ps := &m.ps[k]
		for b, r := range cl.rs[a*len(cl.qs) : (a+1)*len(cl.qs)] {
			if bound := int(ps.open[r]) + 1; bound < best.MinBound {
				best = sched.TimelyPair{P: ps.p, Q: cl.qs[b], MinBound: bound}
			}
		}
	}
	return best
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
// belongs to with the probed bound, each with its best witness pair.
func (m *Monitor) Graph(bound int) []SystemStatus {
	for k := range m.ps {
		m.gaps(&m.ps[k])
	}
	out := make([]SystemStatus, 0, len(m.classes))
	for ci := range m.classes {
		cl := &m.classes[ci]
		best := m.best(cl)
		out = append(out, SystemStatus{
			I: cl.i, J: cl.j,
			Held:     best.MinBound <= bound,
			Best:     best,
			BestP:    best.P.String(),
			BestQ:    best.Q.String(),
			MinBound: best.MinBound,
		})
	}
	return out
}
