package sched

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// roundRobin schedules live processes cyclically. A process p with an entry
// in crashAfter stops being scheduled once it has taken that many steps,
// which is exactly how the paper models crashes: the process stops appearing
// in the schedule.
type roundRobin struct {
	n          int
	crashAfter map[procset.ID]int // retained for Correct()
	limit      []int              // indexed by process; -1 = never crashes
	taken      []int
	order      []procset.ID
	pos        int
}

// RoundRobin returns a source scheduling p1..pn cyclically. Processes listed
// in crashAfter crash after taking that many steps (0 means they never take a
// step). crashAfter may be nil for a failure-free schedule.
func RoundRobin(n int, crashAfter map[procset.ID]int) (Source, error) {
	if err := validateCrashMap(n, crashAfter); err != nil {
		return nil, err
	}
	rr := &roundRobin{
		n:          n,
		crashAfter: crashAfter,
		limit:      make([]int, n+1),
		taken:      make([]int, n+1),
		order:      make([]procset.ID, n),
	}
	for p := range rr.limit {
		rr.limit[p] = -1
	}
	for p, c := range crashAfter {
		rr.limit[p] = c
	}
	for i := range rr.order {
		rr.order[i] = procset.ID(i + 1)
	}
	return rr, nil
}

func validateCrashMap(n int, crashAfter map[procset.ID]int) error {
	if n < 1 || n > procset.MaxProcs {
		return fmt.Errorf("sched: n = %d out of range", n)
	}
	live := n
	for p, c := range crashAfter {
		if p < 1 || procset.ID(n) < p {
			return fmt.Errorf("sched: crashAfter names %v outside Π%d", p, n)
		}
		if c < 0 {
			return fmt.Errorf("sched: crashAfter[%v] = %d negative", p, c)
		}
		live--
	}
	if live < 1 {
		return fmt.Errorf("sched: all %d processes crash; schedules must be infinite", n)
	}
	return nil
}

func correctFromCrashMap(n int, crashAfter map[procset.ID]int) procset.Set {
	correct := procset.FullSet(n)
	for p := range crashAfter {
		correct = correct.Remove(p)
	}
	return correct
}

func (r *roundRobin) Next() procset.ID {
	for {
		p := r.order[r.pos]
		r.pos = (r.pos + 1) % len(r.order)
		lim := r.limit[p]
		if lim < 0 {
			return p
		}
		if r.taken[p] >= lim {
			continue
		}
		r.taken[p]++
		return p
	}
}

// NextBlock implements BlockSource with direct calls to the concrete Next.
func (r *roundRobin) NextBlock(dst []procset.ID) {
	for i := range dst {
		dst[i] = r.Next()
	}
}

func (r *roundRobin) N() int               { return r.n }
func (r *roundRobin) Correct() procset.Set { return correctFromCrashMap(r.n, r.crashAfter) }

// random schedules live processes uniformly at random (seeded, reproducible).
// The crash pattern is held as one dense remaining-budget slice: rem[p] is
// how many more steps p may take, math.MaxInt for a process that never
// crashes. A drawn process with no budget left is rejected and the draw is
// consumed, which is how the paper models a crash: p stops appearing.
type random struct {
	n          int
	crashAfter map[procset.ID]int // retained for Correct()
	rem        []int              // indexed by process
	pcg        *rand.PCG          // drawn from directly: see intN
}

// RandomSource is the source Random returns. Reseed rewinds it in place to
// the state Random(N(), seed, crashAfter) starts in, so a campaign worker
// can replay many seeds on one source without allocating.
type RandomSource interface {
	BlockSource
	Reseed(seed int64, crashAfter map[procset.ID]int) error
}

// Random returns a seeded uniformly random source over the live processes.
// Processes in crashAfter crash after taking that many steps.
func Random(n int, seed int64, crashAfter map[procset.ID]int) (RandomSource, error) {
	if err := validateCrashMap(n, crashAfter); err != nil {
		return nil, err
	}
	r := &random{n: n, rem: make([]int, n+1), pcg: new(rand.PCG)}
	r.reset(seed, crashAfter)
	return r, nil
}

// Reseed validates crashAfter against N() and rewinds the source to seed
// and that crash pattern. On error the source is unchanged.
func (r *random) Reseed(seed int64, crashAfter map[procset.ID]int) error {
	if err := validateCrashMap(r.n, crashAfter); err != nil {
		return err
	}
	r.reset(seed, crashAfter)
	return nil
}

func (r *random) reset(seed int64, crashAfter map[procset.ID]int) {
	r.pcg.Seed(uint64(seed), pcgStream)
	r.crashAfter = crashAfter
	fillBudgets(r.rem, crashAfter)
}

// fillBudgets writes crashAfter into rem as dense budgets: rem[p] is how
// many steps p may take, math.MaxInt for a process that never crashes.
func fillBudgets(rem []int, crashAfter map[procset.ID]int) {
	for p := range rem {
		rem[p] = math.MaxInt
	}
	for p, c := range crashAfter {
		rem[p] = c
	}
}

// intN draws uniformly from [0, n) with math/rand/v2's bounded-draw
// algorithm (Lemire's multiply-shift with the below-threshold retry), applied
// directly to the PCG. Streams are bit-identical to rand.New(pcg).IntN(n) —
// seeds reproduce the exact schedules they always did — but the draw skips
// the rand.Rand wrapper's Source interface dispatch, which was a measurable
// slice of every batched campaign step.
func (r *random) intN(n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.pcg.Uint64(), n)
	if lo < n {
		hi = r.retry(hi, lo, n)
	}
	return hi
}

// retry finishes a bounded draw whose first product fell below n: it
// redraws while the low word is under the rejection threshold. The branch
// into it is taken about n times in 2^64, so it stays out of line.
func (r *random) retry(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.pcg.Uint64(), n)
	}
	return hi
}

// Next is the reference form of the schedule: one bounded draw per
// attempt, redrawn while the drawn process has no budget left.
func (r *random) Next() procset.ID {
	for {
		p := int(r.intN(uint64(r.n))) + 1
		if r.rem[p] > 0 {
			r.rem[p]--
			return procset.ID(p)
		}
	}
}

// NextBlock fills dst exactly as len(dst) Next calls would. A crash-free
// source is one draw per step. Otherwise the free tail of dst is filled
// with as many crash-free draws as it has room for, and filter compacts
// the draws the crash pattern keeps to its front, until dst is full: every
// draw is consumed once, as Next consumes it.
func (r *random) NextBlock(dst []procset.ID) {
	if len(r.crashAfter) == 0 {
		r.draw(dst)
		return
	}
	for i := 0; i < len(dst); {
		r.draw(dst[i:])
		kept, _ := filter(dst[i:], dst[i:], r.rem)
		i += kept
	}
}

// draw fills dst with the next len(dst) crash-free draws: the processes
// Next would draw, before its crash budgets reject any. A power-of-two n
// is a masked draw.
func (r *random) draw(dst []procset.ID) {
	n := uint64(r.n)
	if n&(n-1) == 0 {
		for i := range dst {
			dst[i] = procset.ID(r.pcg.Uint64()&(n-1)) + 1
		}
		return
	}
	for i := range dst {
		p, lo := bits.Mul64(r.pcg.Uint64(), n)
		if lo < n {
			p = r.retry(p, lo, n)
		}
		dst[i] = procset.ID(p) + 1
	}
}

// filter is the crash rule over a crash-free draw stream, the one place
// outside Next that applies it: it walks draws, keeps a draw p while
// rem[p] > 0 (taking one step of p's budget) and rejects it otherwise,
// until dst is full or draws run out. It returns how many draws it kept
// into dst and how many it consumed. dst may be draws itself: a kept draw
// is written at or before the draw being read. Every draw is written at
// the write index, which advances only for a kept one, so a rejection is
// overwritten without a data-dependent branch.
func filter(dst, draws []procset.ID, rem []int) (kept, used int) {
	for ; used < len(draws) && kept < len(dst); used++ {
		p := draws[used]
		dst[kept] = p
		live := 0
		if rem[p] > 0 {
			live = 1
		}
		rem[p] -= live
		kept += live
	}
	return kept, used
}

func (r *random) N() int               { return r.n }
func (r *random) Correct() procset.Set { return correctFromCrashMap(r.n, r.crashAfter) }

// figure1 is the infinite schedule of Figure 1 in the paper:
// S = [(p1 · q)^i · (p2 · q)^i] for i = 1, 2, 3, ...
type figure1 struct {
	n          int
	p1, p2, q  procset.ID
	round      int
	posInRound int
}

// Figure1 returns the schedule of Figure 1 as a source over a system of n
// processes. Neither {p1} nor {p2} is timely with respect to {q}, but
// {p1, p2} is timely with respect to {q} with bound 1.
func Figure1(n int, p1, p2, q procset.ID) (Source, error) {
	for _, p := range []procset.ID{p1, p2, q} {
		if p < 1 || procset.ID(n) < p {
			return nil, fmt.Errorf("sched: Figure1 process %v outside Π%d", p, n)
		}
	}
	if p1 == p2 || p1 == q || p2 == q {
		return nil, fmt.Errorf("sched: Figure1 requires distinct p1, p2, q")
	}
	return &figure1{n: n, p1: p1, p2: p2, q: q, round: 1}, nil
}

func (f *figure1) Next() procset.ID {
	// Round i has 4i steps: (p1 q)^i then (p2 q)^i.
	if f.posInRound >= 4*f.round {
		f.round++
		f.posInRound = 0
	}
	pos := f.posInRound
	f.posInRound++
	if pos%2 == 1 {
		return f.q
	}
	if pos < 2*f.round {
		return f.p1
	}
	return f.p2
}

// NextBlock implements BlockSource with direct calls to the concrete Next.
func (f *figure1) NextBlock(dst []procset.ID) {
	for i := range dst {
		dst[i] = f.Next()
	}
}

func (f *figure1) N() int               { return f.n }
func (f *figure1) Correct() procset.Set { return procset.MakeSet(f.p1, f.p2, f.q) }

// setTimely wraps an inner source and enforces that P is timely with respect
// to Q with the given bound, injecting steps of P (round-robin within P)
// whenever the inner schedule is about to open a window with bound Q-steps
// and no P-step. The resulting schedule is guaranteed to lie in
// S^{|P|}_{|Q|,n} with the stated bound while otherwise following the inner
// schedule, which may be arbitrarily adversarial.
type setTimely struct {
	inner   Source
	p, q    procset.Set
	bound   int
	qGap    int
	inject  []procset.ID
	injPos  int
	pending procset.ID // buffered inner step (0 = none)
}

// SetTimely builds the conformant generator for S^{|P|}_{|Q|,n}. P may
// contain crashed processes — timeliness of a set only requires that some
// member steps in every window — but it must contain at least one process
// that is correct in the inner schedule: only correct members are injected,
// which keeps the declared correct set truthful. bound must be at least 1.
func SetTimely(inner Source, p, q procset.Set, bound int) (Source, error) {
	if bound < 1 {
		return nil, fmt.Errorf("sched: SetTimely bound %d < 1", bound)
	}
	if p.IsEmpty() || q.IsEmpty() {
		return nil, fmt.Errorf("sched: SetTimely requires nonempty P and Q")
	}
	full := procset.FullSet(inner.N())
	if !p.SubsetOf(full) || !q.SubsetOf(full) {
		return nil, fmt.Errorf("sched: SetTimely sets P=%v Q=%v exceed Π%d", p, q, inner.N())
	}
	injectable := p.Intersect(inner.Correct())
	if injectable.IsEmpty() {
		return nil, fmt.Errorf("sched: SetTimely P=%v has no correct member (correct=%v)",
			p, inner.Correct())
	}
	if bound == 1 && !q.Minus(p).Intersect(inner.Correct()).IsEmpty() {
		// With bound 1 every window containing a single Q-step must contain
		// a P-step, i.e. Q-steps must be P-steps: correct processes in Q∖P
		// could never be scheduled, contradicting their correctness.
		return nil, fmt.Errorf("sched: SetTimely bound 1 requires Q∖P to contain no correct process (Q∖P=%v)",
			q.Minus(p))
	}
	return &setTimely{inner: inner, p: p, q: q, bound: bound, inject: injectable.Members()}, nil
}

func (s *setTimely) Next() procset.ID {
	var step procset.ID
	if s.pending != 0 {
		step, s.pending = s.pending, 0
	} else {
		step = s.inner.Next()
	}
	switch {
	case s.p.Contains(step):
		s.qGap = 0
	case s.q.Contains(step):
		if s.qGap+1 >= s.bound {
			// Emitting step would complete a P-free window with bound
			// Q-steps; emit a member of P first and buffer the inner step.
			s.pending = step
			s.qGap = 0
			inj := s.inject[s.injPos]
			s.injPos = (s.injPos + 1) % len(s.inject)
			return inj
		}
		s.qGap++
	}
	return step
}

// NextBlock implements BlockSource with direct calls to the concrete Next.
func (s *setTimely) NextBlock(dst []procset.ID) {
	for i := range dst {
		dst[i] = s.Next()
	}
}

func (s *setTimely) N() int               { return s.inner.N() }
func (s *setTimely) Correct() procset.Set { return s.inner.Correct() }

// rotatingStarver is the adversary for the negative side of Theorem 26: it
// produces failure-free schedules in which every set of size k fails to be
// timely with respect to Πn (each k-set is starved during ever-growing
// phases), while every set of size k+1 is timely with respect to Πn with a
// small bound (in every phase, at least one member of any (k+1)-set is
// scheduled round-robin). Hence the schedule lies in S^{k+1}_{n,n} but
// defeats any strategy that waits for a timely k-set.
type rotatingStarver struct {
	n, k     int
	victims  []procset.Set
	phaseIdx int
	phaseLen int
	pos      int
	// others[:nOthers] are the processes outside the phase's victim, in
	// ascending order; otherPos is the next one scheduled.
	others   [procset.MaxProcs]procset.ID
	nOthers  int
	otherPos int
	growth   int
}

// RotatingStarver returns the Theorem 26 adversary for a system of n
// processes with starvation parameter k (1 <= k < n). growth controls how
// fast starvation phases grow; larger values starve harder per phase.
func RotatingStarver(n, k, growth int) (Source, error) {
	if n < 2 || n > procset.MaxProcs {
		return nil, fmt.Errorf("sched: RotatingStarver n = %d out of range", n)
	}
	if k < 1 || k >= n {
		return nil, fmt.Errorf("sched: RotatingStarver requires 1 <= k < n, got k=%d n=%d", k, n)
	}
	if growth < 1 {
		return nil, fmt.Errorf("sched: RotatingStarver growth %d < 1", growth)
	}
	rs := &rotatingStarver{n: n, k: k, victims: procset.KSubsets(n, k), growth: growth}
	rs.startPhase(0, 1)
	return rs, nil
}

func (r *rotatingStarver) startPhase(idx, round int) {
	r.phaseIdx = idx
	victim := r.victims[idx%len(r.victims)]
	r.nOthers = 0
	for m := uint64(victim.Complement(r.n)); m != 0; m &= m - 1 {
		r.others[r.nOthers] = procset.ID(bits.TrailingZeros64(m) + 1)
		r.nOthers++
	}
	r.otherPos = 0
	r.phaseLen = r.growth * round * r.nOthers
	r.pos = 0
}

func (r *rotatingStarver) Next() procset.ID {
	if r.pos >= r.phaseLen {
		next := r.phaseIdx + 1
		r.startPhase(next, next/len(r.victims)+1)
	}
	r.pos++
	p := r.others[r.otherPos]
	if r.otherPos++; r.otherPos == r.nOthers {
		r.otherPos = 0
	}
	return p
}

// NextBlock implements BlockSource with direct calls to the concrete Next.
func (r *rotatingStarver) NextBlock(dst []procset.ID) {
	for i := range dst {
		dst[i] = r.Next()
	}
}

func (r *rotatingStarver) N() int               { return r.n }
func (r *rotatingStarver) Correct() procset.Set { return procset.FullSet(r.n) }

// System builds the canonical conformant source for the partially
// synchronous system S^i_{j,n}: a seeded random base schedule with the given
// crash pattern, wrapped so that P is timely with respect to Q with the
// given bound. P takes correct processes first and is padded with crashed
// ones if fewer than i processes are correct (the model allows crashed
// members in a timely set); Q is P plus j−i further processes, preferring
// crashed ones to make the guarantee as weak as the system allows.
// It returns the source together with the witnessing pair.
func System(n, i, j int, bound int, seed int64, crashAfter map[procset.ID]int) (Source, TimelyPair, error) {
	if i < 1 || j < i || n < j {
		return nil, TimelyPair{}, fmt.Errorf("sched: System requires 1 <= i <= j <= n, got i=%d j=%d n=%d", i, j, n)
	}
	base, err := Random(n, seed, crashAfter)
	if err != nil {
		return nil, TimelyPair{}, err
	}
	correct := base.Correct()
	var p procset.Set
	for _, cand := range append(correct.Members(), procset.FullSet(n).Minus(correct).Members()...) {
		if p.Size() >= i {
			break
		}
		p = p.Add(cand)
	}
	// Q = P plus j-i further processes; prefer crashed ones: timeliness with
	// respect to crashed processes is vacuous, so this yields the weakest
	// guarantee consistent with membership in S^i_{j,n}.
	q := p
	crashed := procset.FullSet(n).Minus(correct)
	for _, cand := range append(crashed.Members(), correct.Minus(p).Members()...) {
		if q.Size() >= j {
			break
		}
		q = q.Add(cand)
	}
	src, err := SetTimely(base, p, q, bound)
	if err != nil {
		return nil, TimelyPair{}, err
	}
	return src, TimelyPair{P: p, Q: q, MinBound: bound}, nil
}

// newPCG builds a seeded source's generator: math/rand/v2's PCG, which
// draws in a handful of nanoseconds, on the stream word random.Reseed uses
// too, so every stream is fully determined by its seed.
func newPCG(seed int64) *rand.PCG {
	return rand.NewPCG(uint64(seed), pcgStream)
}

// pcgStream is the fixed second PCG seed word (the odd golden-ratio
// constant); splitting it out lets random.Reseed and LinkDelays.Reset
// re-seed in place.
const pcgStream = 0x9e3779b97f4a7c15
