package explore

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/settimeliness/settimeliness/internal/kset"
	"github.com/settimeliness/settimeliness/internal/msgnet"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// engineTargets are the workloads FuzzEngines drives: the five pooled fuzz
// targets, the kset construction on its second consensus engine and on its
// trivial (k ≥ t+1) path, and the msgnet heartbeat detector on the sync
// matrix.
var engineTargets = []string{
	TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG,
	"kset-chain", "kset-trivial", "heartbeat",
}

// engineRig is one target's wiring on one runner: the machine factory, the
// network (heartbeat only), the harness reset, and the verdict the run
// leaves behind, rendered as text.
type engineRig struct {
	machine func(procset.ID, sim.Registry) sim.Machine
	net     sim.Network
	reset   func()
	verdict func() string
}

// engineKSetConfig is the agreement problem of the kset variants.
func engineKSetConfig(target string, n int) kset.Config {
	switch target {
	case "kset-chain":
		cfg := ksetConfig(n)
		cfg.Engine = kset.EngineCommitAdopt
		return cfg
	case "kset-trivial":
		return kset.Config{N: n, K: 2, T: 1}
	}
	return ksetConfig(n)
}

// testRig builds target's production rig at n processes: a table target,
// or one of the kset variants of engineKSetConfig.
func testRig(t *testing.T, target string, n int) targetRig {
	t.Helper()
	var rig targetRig
	var err error
	if p, ok := targets[target]; ok {
		rig, err = p.rig(n)
	} else {
		rig, err = ksetRig(engineKSetConfig(target, n))
	}
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// newEngineRig builds a fresh rig for target at n processes.
func newEngineRig(t *testing.T, target string, n int, stamp bool) engineRig {
	t.Helper()
	if target == "heartbeat" {
		hb, err := msgnet.NewHeartbeat(msgnet.HeartbeatConfig{N: n, Stamp: stamp})
		if err != nil {
			t.Fatal(err)
		}
		def, links, err := msgnet.BuildMatrix(msgnet.MatrixSync, n, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		net, err := msgnet.New(msgnet.Config{N: n, Default: def, Links: links})
		if err != nil {
			t.Fatal(err)
		}
		return engineRig{
			machine: hb.Machine,
			net:     net,
			reset:   func() {},
			verdict: func() string {
				var leaders, rounds []int
				for p := 1; p <= n; p++ {
					leaders = append(leaders, int(hb.Leader(procset.ID(p))))
					rounds = append(rounds, hb.Rounds(procset.ID(p)))
				}
				leader, ok := hb.Agree(procset.FullSet(n))
				return fmt.Sprintf("leaders %v rounds %v agree (%v, %v) net %+v", leaders, rounds, leader, ok, net.Stats())
			},
		}
	}
	rig := testRig(t, target, n)
	return engineRig{
		machine: rig.machine,
		reset:   rig.reset,
		verdict: func() string { return fmt.Sprint(rig.check(procset.EmptySet)) },
	}
}

// engineBuilder is target's coroutine reference, or nil (heartbeat has
// none).
func engineBuilder(target string, n int) Builder {
	switch target {
	case "kset-chain", "kset-trivial":
		return ksetBuilder(engineKSetConfig(target, n))
	case "heartbeat":
		return nil
	}
	build, err := TargetBuilder(target, n)
	if err != nil {
		panic(err)
	}
	return build
}

// engineCase is one decoded FuzzEngines input.
type engineCase struct {
	n      int
	target string
	stamp  bool
	warm   sched.Schedule
	sched  sched.Schedule
}

// decodeEngineCase reads n in 2..4, the target, an optional crash and the
// heartbeat stamp flag from shape; the warm-up schedule from warm and the
// measured schedule from steps, one process per byte, each capped at 600
// steps. The crash removes one process from the measured schedule after
// its j-th step.
func decodeEngineCase(shape, warm, steps []byte) engineCase {
	r := byteReader(shape)
	c := engineCase{n: 2 + r.next()%3}
	c.target = engineTargets[r.next()%len(engineTargets)]
	crash := r.next()
	after := r.next() % 64
	c.stamp = r.next()%2 == 1
	for _, b := range warm[:min(len(warm), 600)] {
		c.warm = append(c.warm, procset.ID(int(b)%c.n+1))
	}
	taken := 0
	for _, b := range steps[:min(len(steps), 600)] {
		p := procset.ID(int(b)%c.n + 1)
		if crash%2 == 1 && p == procset.ID(1+crash/2%c.n) {
			if taken == after {
				continue
			}
			taken++
		}
		c.sched = append(c.sched, p)
	}
	return c
}

// byteReader hands out input bytes, then zeros.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// engineOutcome is what one engine exposes after running the measured
// schedule.
type engineOutcome struct {
	res     sim.RunResult
	stats   sim.Stats
	fp      string
	verdict string
}

// runnerFingerprint renders what the harness sees of a run without an
// observer: the step count and each process's progress and halt flag.
func runnerFingerprint(r *sim.Runner, n int) string {
	s := fmt.Sprintf("steps %d:", r.Steps())
	for p := 1; p <= n; p++ {
		s += fmt.Sprintf(" p%d %d/%v", p, r.StepsTaken(procset.ID(p)), r.Halted(procset.ID(p)))
	}
	return s
}

// stepLine renders one StepInfo. full prints the register and the value
// with %v, which an observed (allocate-per-write) run supports. Otherwise
// the register name is left out and a value that is not a plain scalar is
// reduced to its type: a recycled run hands dead register groups to new
// objects (bg's safe agreements), so its names depend on what the runner
// ran before, and its values are leased arena objects.
func stepLine(si sim.StepInfo, full bool) string {
	v, reg := si.Value, si.Reg
	if !full {
		switch v.(type) {
		case nil, int, bool, string:
		default:
			v = fmt.Sprintf("%T", v)
		}
		reg = "-"
	}
	return fmt.Sprintf("%d %v %v %s %v %v %v", si.Index, si.Proc, si.Kind, reg, v, si.Peer, si.Fault)
}

// finish records the run's stats (less the register gauge, which counts
// registers a longer warm-up interned), fingerprint and verdict.
func (c engineCase) finish(r *sim.Runner, rig engineRig, o *engineOutcome) {
	o.stats = r.Stats()
	o.stats.Registers = 0
	o.fp = runnerFingerprint(r, c.n)
	o.verdict = rig.verdict()
}

// newRunner builds a runner on rig, with observer if non-nil.
func (c engineCase) newRunner(t *testing.T, rig engineRig, observer func(sim.StepInfo)) *sim.Runner {
	t.Helper()
	r, err := sim.NewRunner(sim.Config{N: c.n, Machine: rig.machine, Network: rig.net, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// reset rewinds rig and its runner for the next run.
func reset(t *testing.T, r *sim.Runner, rig engineRig) {
	t.Helper()
	rig.reset()
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngines pins Runner.Reset to a fresh build on every pooled target and
// on the heartbeat detector. A runner runs a warm-up schedule, is Reset,
// and runs the measured schedule; its RunResult, Stats, fingerprint,
// verdict and StepInfo stream must equal those of a fresh runner's
// RunSchedule and of a fresh Step loop with an observer, and the verdict
// must equal the coroutine reference's. The Step loops also compare the
// verdict after every step, which catches a harness output (a heartbeat
// leader) that changes at a different step but ends up the same. Reset
// runs on both kinds of runner: observer-free (recycled values; Run, then
// Reset again and a Step loop whose returned StepInfos are compared up to
// register names and leased values) and observed (every register and
// value compared). Warm-ups of any length stop machines mid-collect,
// mid-snapshot-scan, mid-round and after halts. Its seed corpus is in
// testdata/fuzz/FuzzEngines.
func FuzzEngines(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, warm, steps []byte) {
		c := decodeEngineCase(shape, warm, steps)
		if len(c.sched) == 0 {
			return
		}

		// The reference: a fresh Step loop with an observer.
		var ref engineOutcome
		refRig := newEngineRig(t, c.target, c.n, c.stamp)
		var refInfos []sim.StepInfo
		var refVerdicts []string
		rr := c.newRunner(t, refRig, func(si sim.StepInfo) { refInfos = append(refInfos, si) })
		for _, p := range c.sched {
			rr.Step(p)
			refVerdicts = append(refVerdicts, refRig.verdict())
		}
		c.finish(rr, refRig, &ref)
		ref.res = sim.RunResult{Steps: len(c.sched)}
		project := func(full bool) []string {
			var out []string
			for i, si := range refInfos {
				out = append(out, stepLine(si, full)+" | "+refVerdicts[i])
			}
			return out
		}
		refFull, refScalar := project(true), project(false)

		// A fresh observer-free runner's RunSchedule.
		var fresh engineOutcome
		freshRig := newEngineRig(t, c.target, c.n, c.stamp)
		fr := c.newRunner(t, freshRig, nil)
		fr.RunSchedule(c.sched)
		c.finish(fr, freshRig, &fresh)
		fresh.res = ref.res
		compareEngines(t, "fresh RunSchedule", fresh, ref, nil, nil)

		// An observer-free runner: warm-up, Reset, Run; then Reset again and
		// a Step loop.
		var pooled engineOutcome
		pooledRig := newEngineRig(t, c.target, c.n, c.stamp)
		pr := c.newRunner(t, pooledRig, nil)
		pr.RunSchedule(c.warm)
		reset(t, pr, pooledRig)
		src, err := sched.Replay(c.n, c.sched, c.sched)
		if err != nil {
			t.Fatal(err)
		}
		pooled.res = pr.Run(src, len(c.sched), 0, nil)
		c.finish(pr, pooledRig, &pooled)
		compareEngines(t, "reset Run", pooled, ref, nil, nil)
		reset(t, pr, pooledRig)
		var lines []string
		for _, p := range c.sched {
			lines = append(lines, stepLine(pr.Step(p), false)+" | "+pooledRig.verdict())
		}
		c.finish(pr, pooledRig, &pooled)
		compareEngines(t, "reset Step loop", pooled, ref, lines, refScalar)

		// An observed runner: warm-up, Reset, Step loop.
		var observed engineOutcome
		obsRig := newEngineRig(t, c.target, c.n, c.stamp)
		or := c.newRunner(t, obsRig, func(si sim.StepInfo) { lines = append(lines, stepLine(si, true)) })
		or.RunSchedule(c.warm)
		reset(t, or, obsRig)
		lines = lines[:0]
		for _, p := range c.sched {
			or.Step(p)
			lines[len(lines)-1] += " | " + obsRig.verdict()
		}
		c.finish(or, obsRig, &observed)
		observed.res = ref.res
		compareEngines(t, "observed reset Step loop", observed, ref, lines, refFull)

		// The coroutine reference's verdict.
		if build := engineBuilder(c.target, c.n); build != nil {
			algo, check := build()
			cr, err := sim.NewRunner(sim.Config{N: c.n, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			cr.RunSchedule(c.sched)
			got := fmt.Sprint(check())
			cr.Close()
			if got != ref.verdict {
				t.Fatalf("%s n=%d: coroutine verdict %q, machine %q", c.target, c.n, got, ref.verdict)
			}
		}
	})
}

// compareEngines fails on the first difference between got and want, and
// between the streams when given.
func compareEngines(t *testing.T, label string, got, want engineOutcome, stream, wantStream []string) {
	t.Helper()
	for i := 0; i < min(len(stream), len(wantStream)); i++ {
		if stream[i] != wantStream[i] {
			t.Fatalf("%s: step %d diverges:\n  got:  %s\n  want: %s", label, i, stream[i], wantStream[i])
		}
	}
	if len(stream) != len(wantStream) {
		t.Fatalf("%s: %d StepInfos, want %d", label, len(stream), len(wantStream))
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"RunResult", got.res, want.res},
		{"Stats", got.stats, want.stats},
		{"fingerprint", got.fp, want.fp},
		{"verdict", got.verdict, want.verdict},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs:\n  got:  %v\n  want: %v", label, f.name, f.got, f.want)
		}
	}
}
