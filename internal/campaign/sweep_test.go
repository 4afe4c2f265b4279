package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// pingMachine reads and writes one register forever.
type pingMachine struct {
	reg   sim.Ref
	reads bool
	op    sim.Op
}

func (m *pingMachine) NextOp(any) *sim.Op {
	m.reads = !m.reads
	if m.reads {
		m.op = sim.ReadOp(m.reg)
		return &m.op
	}
	m.op = sim.WriteOp(m.reg, 7)
	return &m.op
}

func newPingRunner(string) (*sim.Runner, error) {
	return sim.NewRunner(sim.Config{N: 2, Machine: func(_ procset.ID, regs sim.Registry) sim.Machine {
		return &pingMachine{reg: regs.Reg("ping")}
	}})
}

// pingSweep runs two jobs of two runs each on one rig; every run takes
// steps steps, and run 1 of job 1 then panics.
func pingSweep(steps int) Sweep[string, *sim.Runner, struct{}] {
	return Sweep[string, *sim.Runner, struct{}]{
		Config: Config{Workers: 1},
		Cells:  []Cell[string]{{Name: "calm", Hi: 2}, {Name: "boom", Hi: 2}},
		Build:  newPingRunner,
		Runner: func(r *sim.Runner) *sim.Runner { return r },
		Run: func(r *sim.Runner, out *Outcome, j int, _ int64, i int) (bool, error) {
			out.Ok = true
			if err := r.Reset(); err != nil {
				return true, err
			}
			for k := 0; k < steps; k++ {
				r.Step(procset.ID(k%2 + 1))
			}
			if j == 1 && i == 1 {
				panic("boom")
			}
			return false, nil
		},
	}
}

// A run that panics with flight recording on fails its job with verdict
// "panic", and the panic message carries the flight tail of that run
// alone: the ring is emptied before each run, so the three earlier runs on
// the same rig leave no steps in it.
func TestSweepPanicCarriesFlightTail(t *testing.T) {
	t.Parallel()
	const steps = 5
	for _, flight := range []int{0, 16} {
		ctx := WithOptions(context.Background(), Options{Flight: flight})
		rep, _, err := RunSweep(ctx, pingSweep(steps))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) != 1 || rep.Failures[0].Verdict != "panic" || rep.Failures[0].Name != "boom" {
			t.Fatalf("flight %d: failures %+v, want job boom's panic", flight, rep.Failures)
		}
		msg := rep.Failures[0].Detail.(PanicDetail).Message
		if flight == 0 {
			if msg != "boom" {
				t.Errorf("no recorder: panic message %q, want the bare value", msg)
			}
			continue
		}
		if !strings.HasPrefix(msg, "boom\nflight recorder tail:\nflight recorder: last 5 step(s)\n") {
			t.Errorf("panic message does not carry the run's own 5-step tail:\n%s", msg)
		}
		if got := strings.Count(msg, "ping"); got != steps {
			t.Errorf("tail holds %d steps, want %d:\n%s", got, steps, msg)
		}
	}
}

// RunSweep builds one rig per key before any job runs, so a bad key fails
// the sweep with no report; otherwise each key's pool serves its cells and
// each job's Detail comes back decoded under the job's index.
func TestSweepKeyedPoolsAndDetails(t *testing.T) {
	t.Parallel()
	builds := map[string]int{}
	sweep := Sweep[string, string, int]{
		Config: Config{Workers: 1},
		Cells:  []Cell[string]{{Name: "a0", Key: "a", Hi: 3}, {Name: "b0", Key: "b", Hi: 1}, {Name: "a1", Key: "a", Lo: 3, Hi: 4}},
		Build: func(k string) (string, error) {
			if k == "bad" {
				return "", errors.New("bad key")
			}
			builds[k]++
			return k, nil
		},
		Run: func(rig string, out *Outcome, j int, _ int64, i int) (bool, error) {
			out.Tallies["runs:"+rig]++
			out.Detail = 10*j + i
			return false, nil
		},
		Done: func(out *Outcome, _, runs int) { out.Ok, out.Steps = true, runs },
	}
	rep, details, err := RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if builds["a"] != 1 || builds["b"] != 1 {
		t.Errorf("builds = %v, want one rig per key", builds)
	}
	if got := rep.Summary.Tallies; got["runs:a"] != 4 || got["runs:b"] != 1 || rep.Summary.Steps.Sum != 5 {
		t.Errorf("summary = %+v", rep.Summary)
	}
	if want := []int{2, 10, 23}; len(details) != 3 || details[0] != want[0] || details[1] != want[1] || details[2] != want[2] {
		t.Errorf("details = %v, want %v", details, want)
	}
	sweep.Cells = append(sweep.Cells, Cell[string]{Name: "x", Key: "bad", Hi: 1})
	if rep, _, err := RunSweep(context.Background(), sweep); err == nil || rep != nil {
		t.Errorf("bad key: report %v, error %v; want no report and the build error", rep, err)
	}
}

// A checkpointed sweep cancelled in the middle of a job, then resumed,
// streams byte for byte what an uninterrupted run streams: the job the
// cancellation cut short is neither journaled nor folded, so the resume
// runs it whole.
func TestSweepCancelledMidJobResumesWhole(t *testing.T) {
	t.Parallel()
	sweep := func(cancel func()) Sweep[struct{}, struct{}, struct{}] {
		cells := make([]Cell[struct{}], 5)
		for j := range cells {
			cells[j] = Cell[struct{}]{Name: fmt.Sprint("c", j), Lo: 4 * j, Hi: 4*j + 4}
		}
		return Sweep[struct{}, struct{}, struct{}]{
			Config: Config{Workers: 1, Seed: 3},
			Cells:  cells,
			Build:  func(struct{}) (struct{}, error) { return struct{}{}, nil },
			Run: func(_ struct{}, out *Outcome, j int, seed int64, i int) (bool, error) {
				out.Tallies["runs"]++
				out.Steps += i + int(uint64(seed)%7)
				if cancel != nil && i == 9 { // the second run of job 2
					cancel()
				}
				return false, nil
			},
			Done: func(out *Outcome, _, _ int) { out.Ok = true },
		}
	}
	stream := func(ctx context.Context, s Sweep[struct{}, struct{}, struct{}]) ([]byte, error) {
		var buf bytes.Buffer
		sink, sinkErr := JSONLSink(&buf)
		s.OnResult = sink
		_, _, err := RunSweep(ctx, s)
		if *sinkErr != nil {
			t.Fatal(*sinkErr)
		}
		return buf.Bytes(), err
	}
	want, err := stream(context.Background(), sweep(nil))
	if err != nil {
		t.Fatal(err)
	}

	res := &Resilience{Checkpoint: filepath.Join(t.TempDir(), "ck.jsonl"), Spec: Spec{Kind: "cut", Seed: 3}}
	ctx, cancel := context.WithCancel(WithOptions(context.Background(), Options{Resilience: res}))
	defer cancel()
	_, err = stream(ctx, sweep(cancel))
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("cancelled run returned %v, want an InterruptedError", err)
	}
	if ie.Done != 2 {
		t.Errorf("cancelled run checkpointed %d jobs, want 2 (job 2 was cut short)", ie.Done)
	}
	res.Resume = true
	got, err := stream(WithOptions(context.Background(), Options{Resilience: res}), sweep(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed stream differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}
