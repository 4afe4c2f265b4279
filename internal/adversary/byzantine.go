// The Byzantine director: the corrupting-writer side of the adversary
// package. Where the parking adversary only *schedules* maliciously, this
// director also intercepts the write path (sim.WriteMutator) for a bounded
// set of faulty processes and replaces the values their writes land in
// shared registers — value corruption, stale replay, and targeted
// equivocation, composable with crash populations and with the parking
// adversary's starvation scheduling.
//
// The model is "corrupting writers": a Byzantine process runs its honest
// automaton, but the channel between it and shared memory lies. The writer
// is never told — it proceeds believing its own value landed — which
// captures omission (stale replay erases the write), bit corruption (flip),
// and equivocation (split plants another process's valid value) without
// needing adversarial automata. Safety checks therefore quantify over
// honest processes only, as usual for Byzantine fault models.
//
// Everything is seed-deterministic: the scheduling walk, the drawn
// crash/Byzantine populations (DrawPopulation), and hence the exact
// sequence of corrupted writes. The same (config, seed) replays the same
// run bit for bit, which is what lets the degradation campaigns stay
// worker-count invariant.

package adversary

import (
	"fmt"
	"strings"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Strategy selects how a Byzantine process's writes are corrupted.
type Strategy uint8

// Corruption strategies.
const (
	// StrategyNone never mutates: the director still runs on the mutating
	// fast path, which is what the inert-equivalence tests pin.
	StrategyNone Strategy = iota
	// StrategyFlip replaces an int value v with 2v+1 — a type-preserving
	// bit-style corruption. It does not always leave a workload's proposal
	// domain: commit-adopt processes propose their ids 1..n, so flip maps
	// each v ≤ (n−1)/2 onto 2v+1 ≤ n, another process's proposal (1 onto
	// 3 for n ≥ 3), which explore's commit-adopt validity check (a value in
	// 1..n) cannot tell from an honest one. Only a flipped value above n
	// trips that check when it propagates.
	StrategyFlip
	// StrategyStale replays the register's previous content: the write is
	// effectively erased while the writer believes it landed — the
	// omission-style fault. Always type-safe (the register held that value
	// already).
	StrategyStale
	// StrategySplit equivocates: every second corrupted-eligible write of a
	// Byzantine process is replaced with the last int an honest process
	// wrote — a valid-domain value from elsewhere in the run, so honest
	// readers see internally plausible but inconsistent state.
	StrategySplit
)

// String returns the strategy's CLI name.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "none"
	case StrategyFlip:
		return "flip"
	case StrategyStale:
		return "stale"
	case StrategySplit:
		return "split"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy parses a CLI strategy name.
func ParseStrategy(text string) (Strategy, error) {
	switch strings.TrimSpace(text) {
	case "none":
		return StrategyNone, nil
	case "flip":
		return StrategyFlip, nil
	case "stale":
		return StrategyStale, nil
	case "split":
		return StrategySplit, nil
	default:
		return 0, fmt.Errorf("adversary: unknown strategy %q (want none, flip, stale, or split)", text)
	}
}

// DefaultTraceLimit bounds the retained mutation trace when
// ByzantineConfig.TraceLimit is zero: violation reports want the corrupting
// writes, not an unbounded log of a long run.
const DefaultTraceLimit = 32

// ByzantineConfig parameterizes the Byzantine director.
type ByzantineConfig struct {
	// N is the system size.
	N int
	// Crashed are processes never scheduled (crash faults). Must be empty
	// when Inner is set — crash starvation then belongs to the inner
	// director.
	Crashed procset.Set
	// Corrupt are the Byzantine processes: scheduled normally, but their
	// writes pass through the corruption strategy. Disjoint from Crashed;
	// at least one process must remain honest and live.
	Corrupt procset.Set
	// Strategy selects the value corruption applied to Corrupt's writes.
	Strategy Strategy
	// Seed drives the director's scheduling walk (ignored when Inner is
	// set). The walk is a seeded uniform choice among live processes, so
	// different seeds explore different interleavings deterministically.
	Seed int64
	// Budget caps the number of corrupted writes per run; 0 means
	// unlimited. Writes beyond the budget land honestly.
	Budget int
	// TraceLimit bounds the retained mutation trace (0 means
	// DefaultTraceLimit; negative disables retention).
	TraceLimit int
	// Inner, if non-nil, delegates all scheduling decisions (Next) and
	// receives every OnWrite callback — composing value corruption with the
	// parking adversary's starvation scheduling. When Inner is the package's
	// *Adversary, DriveDirected also rebinds its register-metadata table and
	// tags its crashed-from-start set on the runner.
	Inner sim.Director
}

// Mutation is one corrupted write, retained (bounded) for violation traces.
type Mutation struct {
	// Step is the director-step index at which the write executed.
	Step int
	// Slot is the register's dense id (resolve with Runner.RegName).
	Slot sim.RegID
	// Proc is the Byzantine writer.
	Proc procset.ID
	// Honest is the value the writer's automaton asked to write.
	Honest any
	// Wrote is the value that actually landed.
	Wrote any
}

// Byzantine is a sim.DirectorRW: a scheduling director with the pre-write
// interception hook. It pools — Reconfigure (new population/strategy) or
// Reset (same config) return it to its initial state so campaign workers
// reuse one director per rig.
type Byzantine struct {
	cfg      ByzantineConfig
	live     []procset.ID // scheduling order domain: Πn minus Crashed
	traceMax int

	rng        uint64
	steps      int
	mutations  int
	writes     [procset.MaxProcs + 1]int // per-proc corrupted-eligible write count (split parity)
	lastHonest int
	haveTwin   bool
	trace      []Mutation
}

// NewByzantine builds a Byzantine director.
func NewByzantine(cfg ByzantineConfig) (*Byzantine, error) {
	b := &Byzantine{}
	if err := b.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// Reconfigure validates and installs a new configuration, resetting all run
// state — the pooling path for campaigns that vary (crashed, corrupt,
// strategy, seed) per cell while reusing the director.
func (b *Byzantine) Reconfigure(cfg ByzantineConfig) error {
	if cfg.N < 1 || cfg.N > procset.MaxProcs {
		return fmt.Errorf("adversary: n = %d out of range", cfg.N)
	}
	full := procset.FullSet(cfg.N)
	if !cfg.Crashed.SubsetOf(full) || !cfg.Corrupt.SubsetOf(full) {
		return fmt.Errorf("adversary: fault sets outside Π%d", cfg.N)
	}
	if !cfg.Crashed.Intersect(cfg.Corrupt).IsEmpty() {
		return fmt.Errorf("adversary: crashed and corrupt sets overlap: %v", cfg.Crashed.Intersect(cfg.Corrupt))
	}
	if full.Minus(cfg.Crashed).Minus(cfg.Corrupt).IsEmpty() {
		return fmt.Errorf("adversary: no honest live process left (n=%d, crashed=%v, corrupt=%v)", cfg.N, cfg.Crashed, cfg.Corrupt)
	}
	if cfg.Inner != nil && !cfg.Crashed.IsEmpty() {
		return fmt.Errorf("adversary: with an inner director, crash scheduling belongs to it (Crashed must be empty)")
	}
	b.cfg = cfg
	b.live = append(b.live[:0], full.Minus(cfg.Crashed).Members()...)
	b.traceMax = cfg.TraceLimit
	switch {
	case b.traceMax == 0:
		b.traceMax = DefaultTraceLimit
	case b.traceMax < 0:
		b.traceMax = 0
	}
	b.Reset()
	return nil
}

// Reset returns the director to its initial state under the same
// configuration (fresh rng, counters, and trace).
func (b *Byzantine) Reset() {
	b.rng = uint64(b.cfg.Seed)
	b.steps = 0
	b.mutations = 0
	clear(b.writes[:])
	b.lastHonest = 0
	b.haveTwin = false
	b.trace = b.trace[:0]
}

// nextRand advances the director's splitmix64 stream.
func (b *Byzantine) nextRand() uint64 {
	b.rng += 0x9E3779B97F4A7C15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next implements sim.Director: a seeded uniform walk over the live
// processes (crashed ones simply never appear, the paper's crash model), or
// the inner director's decision when one is composed in.
func (b *Byzantine) Next() procset.ID {
	b.steps++
	if b.cfg.Inner != nil {
		return b.cfg.Inner.Next()
	}
	return b.live[int(b.nextRand()%uint64(len(b.live)))]
}

// OnWrite implements sim.Director: forward shared-memory reality to the
// inner director (it schedules off what actually landed) and capture the
// last honest int value as the split strategy's equivocation payload.
func (b *Byzantine) OnWrite(slot sim.RegID, proc procset.ID, value any) {
	if b.cfg.Inner != nil {
		b.cfg.Inner.OnWrite(slot, proc, value)
	}
	if !b.cfg.Corrupt.Contains(proc) {
		if v, ok := value.(int); ok {
			b.lastHonest, b.haveTwin = v, true
		}
	}
}

// MutateWrite implements sim.WriteMutator: apply the corruption strategy to
// writes of Corrupt processes, within budget. Honest processes' writes pass
// through untouched. Mutations are type-preserving by construction — flip
// and split only rewrite int values, stale replays the register's own
// previous content — so readers' runtime type assertions stay intact and
// violations are semantic, not crashes.
func (b *Byzantine) MutateWrite(slot sim.RegID, proc procset.ID, old, value any) any {
	if b.cfg.Strategy == StrategyNone || !b.cfg.Corrupt.Contains(proc) {
		return value
	}
	if b.cfg.Budget > 0 && b.mutations >= b.cfg.Budget {
		return value
	}
	wrote := value
	switch b.cfg.Strategy {
	case StrategyFlip:
		v, ok := value.(int)
		if !ok {
			return value
		}
		wrote = 2*v + 1
	case StrategyStale:
		wrote = old
	case StrategySplit:
		b.writes[proc]++
		if b.writes[proc]%2 == 1 {
			return value // odd writes land honestly: the equivocation half
		}
		v, ok := value.(int)
		if !ok || !b.haveTwin || b.lastHonest == v {
			return value
		}
		wrote = b.lastHonest
	}
	b.mutations++
	if len(b.trace) < b.traceMax {
		b.trace = append(b.trace, Mutation{Step: b.steps, Slot: slot, Proc: proc, Honest: value, Wrote: wrote})
	}
	return wrote
}

// Steps returns how many steps the director has scheduled.
func (b *Byzantine) Steps() int { return b.steps }

// Mutations returns how many writes were corrupted in the current run.
func (b *Byzantine) Mutations() int { return b.mutations }

// Trace returns the retained corrupted writes (bounded by TraceLimit).
func (b *Byzantine) Trace() []Mutation { return b.trace }

// FormatTrace renders the mutation trace with register names resolved
// through the runner, for violation reports.
func (b *Byzantine) FormatTrace(r *sim.Runner) string {
	if b.mutations == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "corrupting writes (%s): %d mutation(s)", b.cfg.Strategy, b.mutations)
	if b.mutations > len(b.trace) {
		fmt.Fprintf(&sb, ", first %d retained", len(b.trace))
	}
	for _, m := range b.trace {
		fmt.Fprintf(&sb, "\n  step #%d %v %s: honest %v -> wrote %v", m.Step, m.Proc, r.RegName(m.Slot), m.Honest, m.Wrote)
	}
	return sb.String()
}

// DriveDirected runs the director against the runner on the mutating
// directed fast path: fault classes are tagged on the runner (so StepInfo
// streams and flight dumps show who was faulty), a composed parking
// adversary gets its register-metadata table bound, and the runner steps
// under pre-write interception. The runner must be machine-mode,
// observer-free, and built with Config.NoRecycle.
func (b *Byzantine) DriveDirected(runner *sim.Runner, maxSteps, checkEvery int, stop func() bool) (int, bool) {
	crashed := b.cfg.Crashed
	if inner, ok := b.cfg.Inner.(*Adversary); ok {
		crashed = inner.cfg.CrashedFromStart
		if inner.boundTo != runner {
			inner.boundTo = runner
			inner.table.Rebind(runner.RegName)
		}
	}
	for _, p := range crashed.Members() {
		runner.SetFaultClass(p, sim.FaultCrashed)
	}
	for _, p := range b.cfg.Corrupt.Members() {
		runner.SetFaultClass(p, sim.FaultByzantine)
	}
	res := runner.RunDirected(b, maxSteps, checkEvery, stop)
	return res.Steps, res.Stopped
}

// DrawPopulation deterministically draws disjoint crashed and Byzantine
// sets of the given sizes from Πn: a seeded Fisher–Yates shuffle of the
// process ids, with the first crash ids crashed and the next byz ids
// corrupted. The mixed-population model of the degradation campaigns draws
// one population per run this way. Requires crash + byz < n (at least one
// honest live process).
func DrawPopulation(n, crash, byz int, seed int64) (crashed, corrupt procset.Set, err error) {
	if n < 1 || n > procset.MaxProcs {
		return 0, 0, fmt.Errorf("adversary: n = %d out of range", n)
	}
	if crash < 0 || byz < 0 || crash+byz >= n {
		return 0, 0, fmt.Errorf("adversary: population (crash=%d, byz=%d) needs 0 ≤ crash+byz < n = %d", crash, byz, n)
	}
	var ids [procset.MaxProcs]procset.ID
	for i := 0; i < n; i++ {
		ids[i] = procset.ID(i + 1)
	}
	d := &Byzantine{rng: uint64(seed)}
	for i := n - 1; i > 0; i-- {
		j := int(d.nextRand() % uint64(i+1))
		ids[i], ids[j] = ids[j], ids[i]
	}
	for i := 0; i < crash; i++ {
		crashed = crashed.Add(ids[i])
	}
	for i := crash; i < crash+byz; i++ {
		corrupt = corrupt.Add(ids[i])
	}
	return crashed, corrupt, nil
}
