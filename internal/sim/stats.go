// Runner metrics: the counter block behind the observability plane.
//
// The contract that keeps this compatible with the engine's performance
// story: counters are plain integer fields on the runner, incremented by the
// stepping goroutine inside the step kernel's own op-kind switch (exec, in
// machine.go) or by the coroutine step, and *sampled* only between runs or
// at checkEvery boundaries, never per step. Nothing here allocates, takes a
// lock, or changes a single scheduling or memory decision: an observer-free
// machine run with metrics compiled in is bit-identical to one without, and
// stays 0 allocs/op (pinned by TestBatchMetricsDisabledAllocs and the CI
// bench-smoke job).

package sim

import "github.com/settimeliness/settimeliness/internal/procset"

// Stats is a snapshot of a runner's step counters. All fields count since
// construction or the last Reset.
// Steps == Reads + Writes + Noops + Sends + Recvs.
type Stats struct {
	// Steps is the total number of executed steps (Runner.Steps).
	Steps int64 `json:"steps"`
	// Reads counts read steps.
	Reads int64 `json:"reads"`
	// Writes counts write steps (register writes: every write step stores
	// exactly one register value).
	Writes int64 `json:"writes"`
	// Noops counts steps granted to halted processes.
	Noops int64 `json:"noops"`
	// Sends counts message-send steps (runners with a Config.Network).
	Sends int64 `json:"sends,omitempty"`
	// Recvs counts message-receive steps, delivering or empty.
	Recvs int64 `json:"recvs,omitempty"`
	// Registers is the number of interned shared registers (a gauge; the
	// interned set survives Reset).
	Registers int64 `json:"registers"`
}

// Add returns the field-wise sum of s and t (Registers, a gauge, takes t's
// value). Campaign-level aggregation folds per-runner snapshots this way.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Steps:     s.Steps + t.Steps,
		Reads:     s.Reads + t.Reads,
		Writes:    s.Writes + t.Writes,
		Noops:     s.Noops + t.Noops,
		Sends:     s.Sends + t.Sends,
		Recvs:     s.Recvs + t.Recvs,
		Registers: t.Registers,
	}
}

// Sub returns the field-wise difference s - t (Registers, a gauge, takes
// s's value) — the delta between two snapshots of the same runner.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Steps:     s.Steps - t.Steps,
		Reads:     s.Reads - t.Reads,
		Writes:    s.Writes - t.Writes,
		Noops:     s.Noops - t.Noops,
		Sends:     s.Sends - t.Sends,
		Recvs:     s.Recvs - t.Recvs,
		Registers: s.Registers,
	}
}

// statCounters is the runner-embedded accumulation block, one counter per
// step kind; Steps is derived from Runner.steps, which the engine has always
// maintained.
type statCounters struct {
	reads  int64
	writes int64
	noops  int64
	sends  int64
	recvs  int64
}

// recordStep accumulates the counters for one coroutine step (a read, a
// write or a no-op: coroutines have no message verbs) and, when a flight
// recorder is attached, appends the step to its ring. The machine kernel
// counts inside its own op-kind switch instead.
func (r *Runner) recordStep(index int, p procset.ID, kind OpKind, reg RegID) {
	switch kind {
	case OpRead:
		r.stats.reads++
	case OpWrite:
		r.stats.writes++
	default:
		r.stats.noops++
	}
	if fr := r.flight; fr != nil {
		fr.record(index, p, kind, reg)
	}
}

// Stats returns a snapshot of the runner's counters. Safe between Step/Run
// calls on the stepping goroutine (like every other runner accessor); do not
// race it with stepping.
func (r *Runner) Stats() Stats {
	return Stats{
		Steps:     int64(r.steps),
		Reads:     r.stats.reads,
		Writes:    r.stats.writes,
		Noops:     r.stats.noops,
		Sends:     r.stats.sends,
		Recvs:     r.stats.recvs,
		Registers: int64(r.mem.size()),
	}
}

// StatsSource is implemented by runner-scoped recyclers (see RecyclerHost)
// that export gauges — the snapshot arena publishes its segment/lease
// recycling counters through it. Implementations write name-prefixed keys
// into dst.
type StatsSource interface {
	StatsInto(dst map[string]int64)
}

// RecyclerStats collects the gauges of every runner-scoped recycler that
// implements StatsSource into dst (created by the caller). On runners
// without recycling (coroutine mode, observer attached) it is a no-op.
// Sampling-path only: allocates map entries, so keep it off hot loops.
func (r *Runner) RecyclerStats(dst map[string]int64) {
	for _, v := range r.mem.cache {
		if s, ok := v.(StatsSource); ok {
			s.StatsInto(dst)
		}
	}
}
