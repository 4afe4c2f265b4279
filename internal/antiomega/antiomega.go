// Package antiomega implements the algorithm of Figure 2 of the paper: an
// implementation of the t-resilient k-anti-Ω failure detector in the
// partially synchronous system S^k_{t+1,n} (Theorem 23).
//
// Shared registers:
//
//	Heartbeat[p]   for every p ∈ Πn            (written only by p)
//	Counter[A, q]  for every A ∈ Πkn, q ∈ Πn   (written only by q)
//
// Each process repeatedly: reads all counters, computes each set's
// accusation counter (the (t+1)-st smallest entry of Counter[A, *]), picks
// the set with the smallest (accusation, A) as winnerset, outputs
// Πn − winnerset, bumps its own heartbeat, reads everyone's heartbeat to
// reset timers of sets containing processes that moved, and increments
// Counter[A, p] for every set A whose timer expired — doubling that set's
// timeout for the future.
//
// The algorithm exists in two equivalent executable forms sharing one local
// state (the state struct): the resumable coroutine Instance, which higher
// layers (the agreement construction of internal/kset) interleave with
// their own steps within a single process automaton, and the
// direct-dispatch MachineInstance (machine.go), which the campaign engine
// steps without goroutines or channels. Both produce bit-identical
// operation streams; machine_test.go pins the equivalence.
package antiomega

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Aggregation selects how a set's accusation counter is derived from
// Counter[A, *]. The paper fixes the (t+1)-st smallest entry (Definition
// 13); the alternatives are deliberately broken and exist only for the
// ablation experiments, which demonstrate that the paper's choice is
// load-bearing.
type Aggregation int

// Aggregation policies.
const (
	// AggregateTPlus1Smallest is the paper's Definition 13: the (t+1)-st
	// smallest entry. It is the only policy for which Theorem 23 holds.
	AggregateTPlus1Smallest Aggregation = iota
	// AggregateMin breaks Lemma 17: a fully crashed set keeps accusation 0
	// (every set member's own entry never grows), so a dead set can remain
	// the winnerset forever.
	AggregateMin
	// AggregateMax breaks Lemma 16: a single slow-but-correct accuser keeps
	// the timely set's accusation growing, so no set ever stabilizes.
	AggregateMax
)

// Config parameterizes the detector.
type Config struct {
	// N is the number of processes (n ≥ 2).
	N int
	// K is the anti-Ω parameter: outputs have n−k members (1 ≤ k ≤ n−1).
	K int
	// T is the resilience: the property must hold when at most T processes
	// crash (k ≤ t ≤ n−1 per Theorem 23; K > T configurations are accepted
	// because the detector is still well-defined, just trivial to satisfy).
	T int

	// Aggregate overrides Definition 13 for ablation experiments; leave
	// zero (AggregateTPlus1Smallest) for the paper's algorithm.
	Aggregate Aggregation
	// FixedTimeout disables the adaptive timeout growth of Figure 2 line 17
	// (ablation): with a constant timeout every set keeps being accused and
	// the detector cannot stabilize.
	FixedTimeout bool
}

// Validate checks the parameter ranges.
func (c Config) Validate() error {
	if c.N < 2 || c.N > procset.MaxProcs {
		return fmt.Errorf("antiomega: n = %d out of range [2,%d]", c.N, procset.MaxProcs)
	}
	if c.K < 1 || c.K > c.N-1 {
		return fmt.Errorf("antiomega: k = %d out of range [1,%d]", c.K, c.N-1)
	}
	if c.T < 1 || c.T > c.N-1 {
		return fmt.Errorf("antiomega: t = %d out of range [1,%d]", c.T, c.N-1)
	}
	return nil
}

// state is the local (step-free) data of one Figure 2 process: the
// variables of the algorithm, named as in the figure, plus the derived
// detector outputs. The coroutine Instance and the direct-dispatch
// MachineInstance both embed it, so the two execution forms run literally
// the same local computations; only how operations reach shared memory
// differs.
type state struct {
	cfg  Config
	self procset.ID

	subsets []procset.Set // Πkn in canonical (tie-break) order

	fdOutput      procset.Set
	winnerset     procset.Set
	myHb          int
	prevHeartbeat []int // indexed by process (1-based)
	timeout       []int // indexed by subset
	timer         []int // indexed by subset
	accusation    []int // indexed by subset
	// cnt holds Counter[A, q] row-major with stride n+1 (row ai at
	// cnt[ai*(n+1)], entry q at cnt[ai*(n+1)+q]). A flat slice keeps the
	// per-step counter stores of the machine form to one bounds-checked
	// index — this is the single hottest array of the repository.
	cnt []int

	iterations int
	scratch    []int // reused buffer for the (t+1)-st smallest computation
}

// cntRow returns the Counter[A, *] row of the subset with canonical index ai.
func (st *state) cntRow(ai int) []int {
	stride := st.cfg.N + 1
	return st.cnt[ai*stride : (ai+1)*stride]
}

// newState builds the initial local state for one process (Figure 2's
// initializer). cfg must have been validated.
func newState(cfg Config, self procset.ID) state {
	return newStateOver(cfg, self, procset.KSubsets(cfg.N, cfg.K))
}

// newStateOver is newState over a prebuilt Πkn enumeration, which the state
// shares read-only (the machine form takes it from the runner's layout
// cache). The mutable arrays are carved from one allocation.
func newStateOver(cfg Config, self procset.ID, subsets []procset.Set) state {
	n, ns := cfg.N, len(subsets)
	slab := make([]int, (n+1)+3*ns+ns*(n+1)+n)
	carve := func(size int) []int {
		s := slab[:size:size]
		slab = slab[size:]
		return s
	}
	st := state{
		cfg:           cfg,
		self:          self,
		subsets:       subsets,
		prevHeartbeat: carve(n + 1),
		timeout:       carve(ns),
		timer:         carve(ns),
		accusation:    carve(ns),
		cnt:           carve(ns * (n + 1)),
		scratch:       carve(n),
	}
	for ai := range subsets {
		st.timeout[ai] = 1
		st.timer[ai] = 1
	}
	// Initial fdOutput: any set of n−k processes (Figure 2's initializer);
	// we use the complement of the first subset in the canonical order.
	st.winnerset = subsets[0]
	st.fdOutput = subsets[0].Complement(cfg.N)
	return st
}

// chooseWinner runs the local part of lines 2–5 on freshly collected
// counters: derive each set's accusation, pick the (accusation, A)-smallest
// set as winnerset, output its complement.
func (st *state) chooseWinner() {
	for ai := range st.subsets {
		st.accusation[ai] = st.aggregate(st.cntRow(ai))
	}
	st.pickWinner()
}

// pickWinner runs lines 4–5 on the current accusation counters: the
// (accusation, A)-smallest set becomes winnerset, its complement the output.
func (st *state) pickWinner() {
	winner := 0
	for ai := 1; ai < len(st.subsets); ai++ {
		if st.accusation[ai] < st.accusation[winner] {
			winner = ai
		}
	}
	st.winnerset = st.subsets[winner]
	st.fdOutput = st.winnerset.Complement(st.cfg.N)
}

// noteHeartbeat runs lines 9–13 for one process: when q's heartbeat moved,
// rearm the timer of every set containing q.
func (st *state) noteHeartbeat(q, hbq int) {
	if hbq > st.prevHeartbeat[q] {
		member := procset.ID(q)
		for ai, a := range st.subsets {
			if a.Contains(member) {
				st.timer[ai] = st.timeout[ai]
			}
		}
		st.prevHeartbeat[q] = hbq
	}
}

// tickTimer runs lines 14–18 for one set: decrement its timer; on expiry,
// grow the timeout (unless ablated away) and rearm, reporting that line
// 19's accusation write must follow.
func (st *state) tickTimer(ai int) bool {
	st.timer[ai]--
	if st.timer[ai] != 0 {
		return false
	}
	if !st.cfg.FixedTimeout {
		st.timeout[ai]++
	}
	st.timer[ai] = st.timeout[ai]
	return true
}

// aggregate computes the accusation counter from cnt[1..n] per the
// configured policy; the paper's Definition 13 is the (t+1)-st smallest,
// clamped to n (relevant only for t = n−1, where t+1 = n is the largest).
// The sort is a hand-rolled insertion sort: rows are tiny (n entries) and
// this runs once per subset per iteration on the detector's hottest path,
// where sort.Ints' generic dispatch is measurable.
func (st *state) aggregate(cnt []int) int {
	vals := st.scratch[:len(cnt)-1]
	copy(vals, cnt[1:])
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	switch st.cfg.Aggregate {
	case AggregateMin:
		return vals[0]
	case AggregateMax:
		return vals[len(vals)-1]
	default:
		k := st.cfg.T + 1
		if k > len(vals) {
			k = len(vals)
		}
		return vals[k-1]
	}
}

// Output returns the current fdOutput of this process: Πn − winnerset,
// a set of n−k processes.
func (st *state) Output() procset.Set { return st.fdOutput }

// Winnerset returns the current winnerset of this process: the k-subset
// with the smallest accusation counter.
func (st *state) Winnerset() procset.Set { return st.winnerset }

// Iterations returns how many full loop iterations have completed.
func (st *state) Iterations() int { return st.iterations }

// Timeout returns the current timeout for the subset with the given
// canonical index (Lemma 11 diagnostics).
func (st *state) Timeout(subsetIndex int) int { return st.timeout[subsetIndex] }

// makeRefs interns the algorithm's shared registers: Heartbeat[q] for every
// process and Counter[A, q] for every (set, process) pair, both 1-based on
// the process index. reg is Env.Reg or Registry.Reg.
func makeRefs(cfg Config, subsets []procset.Set, reg func(string) sim.Ref) (hb []sim.Ref, counters [][]sim.Ref) {
	hb = make([]sim.Ref, cfg.N+1)
	for q := 1; q <= cfg.N; q++ {
		hb[q] = reg(fmt.Sprintf("Heartbeat[%d]", q))
	}
	counters = make([][]sim.Ref, len(subsets))
	for ai := range subsets {
		counters[ai] = make([]sim.Ref, cfg.N+1)
		for q := 1; q <= cfg.N; q++ {
			counters[ai][q] = reg(fmt.Sprintf("Counter[%d,%d]", ai, q))
		}
	}
	return hb, counters
}

// Instance is the per-process coroutine form of the Figure 2 algorithm.
// Create one with NewInstance inside the process's algorithm function and
// call Iterate repeatedly; between calls, Output and Winnerset expose the
// detector state for composition with other sub-automata of the same
// process.
type Instance struct {
	state
	env sim.Env

	hbRefs      []sim.Ref   // Heartbeat[q], indexed by process (1-based)
	counterRefs [][]sim.Ref // Counter[A, q], indexed by subset index, then process (1-based)
}

// NewInstance builds the instance and creates its register handles. It must
// be called from within the process's algorithm function (it performs no
// steps). The environment's Self() identifies the process.
func NewInstance(cfg Config, env sim.Env) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if env.N() != cfg.N {
		return nil, fmt.Errorf("antiomega: env has n = %d, config has n = %d", env.N(), cfg.N)
	}
	in := &Instance{state: newState(cfg, env.Self()), env: env}
	in.hbRefs, in.counterRefs = makeRefs(cfg, in.subsets, env.Reg)
	return in, nil
}

// asInt converts a register value to int, mapping the initial nil to 0. The
// rare cases run out of line, so asInt inlines into the collect fold.
func asInt(v any) int {
	if i, ok := v.(int); ok {
		return i
	}
	return asIntSlow(v)
}

//go:noinline
func asIntSlow(v any) int {
	if v != nil {
		panic(fmt.Sprintf("antiomega: register holds %T, want int", v))
	}
	return 0
}

// Iterate runs one iteration of the main loop of Figure 2 (lines 2–19).
// It costs |Πkn|·n + 1 + n + (#expired sets) steps.
func (in *Instance) Iterate() {
	n := in.cfg.N
	// Lines 2–5: collect all counters, choose FD output.
	for ai := range in.subsets {
		row := in.cntRow(ai)
		for q := 1; q <= n; q++ {
			row[q] = asInt(in.env.Read(in.counterRefs[ai][q]))
		}
	}
	in.chooseWinner()

	// Lines 6–7: bump heartbeat.
	in.myHb++
	in.env.Write(in.hbRefs[in.self], in.myHb)

	// Lines 8–13: check other processes' heartbeats.
	for q := 1; q <= n; q++ {
		in.noteHeartbeat(q, asInt(in.env.Read(in.hbRefs[q])))
	}

	// Lines 14–19: check for expiration of set timers.
	for ai := range in.subsets {
		if in.tickTimer(ai) {
			in.env.Write(in.counterRefs[ai][in.self], in.cntRow(ai)[in.self]+1)
		}
	}
	in.iterations++
}

// Detector bundles n instances whose outputs are observable by the harness.
// It is the package's convenience layer for running the detector alone, in
// either execution mode: wire Algorithm into sim.Config.Algorithm for the
// coroutine path or Machine into sim.Config.Machine for direct dispatch —
// the harness-visible behavior is identical.
type Detector struct {
	cfg     Config
	outputs []procset.Set // indexed by process (1-based); harness-visible
	winners []procset.Set
	iters   []int
	onOut   func(p procset.ID, out procset.Set)
}

// NewDetector returns a detector harness for the given configuration.
// onOutput, if non-nil, is invoked from algorithm code whenever a process's
// fdOutput changes; per the simulator's serial stepping it runs serially.
func NewDetector(cfg Config, onOutput func(p procset.ID, out procset.Set)) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{
		cfg:     cfg,
		outputs: make([]procset.Set, cfg.N+1),
		winners: make([]procset.Set, cfg.N+1),
		iters:   make([]int, cfg.N+1),
		onOut:   onOutput,
	}, nil
}

// Algorithm returns the coroutine process code: an endless loop of Figure 2
// iterations, publishing output changes to the harness.
func (d *Detector) Algorithm(p procset.ID) sim.Algorithm {
	return func(env sim.Env) {
		in, err := NewInstance(d.cfg, env)
		if err != nil {
			panic(err) // configuration was validated in NewDetector
		}
		prev := procset.EmptySet
		for {
			in.Iterate()
			d.publish(p, &in.state, &prev)
		}
	}
}

// Machine returns the direct-dispatch process code: the machine equivalent
// of Algorithm(p), publishing to the same harness state at the same points
// of the operation stream.
func (d *Detector) Machine(p procset.ID, regs sim.Registry) sim.Machine {
	m, err := NewMachineInstance(d.cfg, p, regs)
	if err != nil {
		panic(err) // configuration was validated in NewDetector
	}
	prev := procset.EmptySet
	m.onIterate = func(m *MachineInstance) {
		d.publish(p, &m.state, &prev)
	}
	return m
}

// publish mirrors one completed iteration into the harness-visible arrays
// and fires the output-change callback.
func (d *Detector) publish(p procset.ID, st *state, prev *procset.Set) {
	d.outputs[p] = st.fdOutput
	d.winners[p] = st.winnerset
	d.iters[p] = st.iterations
	if st.fdOutput != *prev {
		*prev = st.fdOutput
		if d.onOut != nil {
			d.onOut(p, *prev)
		}
	}
}

// Reset clears the harness-visible detector state so the detector can be
// reused across runs of a Reset simulator (the campaign pool's path).
func (d *Detector) Reset() {
	for i := range d.outputs {
		d.outputs[i] = procset.EmptySet
		d.winners[i] = procset.EmptySet
		d.iters[i] = 0
	}
}

// Output returns the last published fdOutput of p (the empty set before the
// process completes its first iteration).
func (d *Detector) Output(p procset.ID) procset.Set { return d.outputs[p] }

// Winnerset returns the last published winnerset of p.
func (d *Detector) Winnerset(p procset.ID) procset.Set { return d.winners[p] }

// Iterations returns the number of completed loop iterations of p.
func (d *Detector) Iterations(p procset.ID) int { return d.iters[p] }

// StableWinnerset reports whether every process in the given set currently
// publishes the same nonempty winnerset, returning it when so.
func (d *Detector) StableWinnerset(among procset.Set) (procset.Set, bool) {
	var common procset.Set
	first := true
	for _, p := range among.Members() {
		w := d.winners[p]
		if w.IsEmpty() {
			return procset.EmptySet, false
		}
		if first {
			common, first = w, false
		} else if w != common {
			return procset.EmptySet, false
		}
	}
	if first {
		return procset.EmptySet, false
	}
	return common, true
}
