package sim

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

func TestFaultClassString(t *testing.T) {
	t.Parallel()
	want := map[FaultClass]string{
		FaultHonest:    "honest",
		FaultCrashed:   "crashed",
		FaultByzantine: "byzantine",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestStepInfoCarriesFaultClass: the generic Step path stamps the tagged
// class into every StepInfo, the default is honest, and Reset clears tags.
func TestStepInfoCarriesFaultClass(t *testing.T) {
	t.Parallel()
	r, err := NewRunner(Config{N: 2, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info := r.Step(1); info.Fault != FaultHonest {
		t.Errorf("untagged step carries %v", info.Fault)
	}
	r.SetFaultClass(2, FaultByzantine)
	if info := r.Step(2); info.Fault != FaultByzantine {
		t.Errorf("tagged step carries %v, want byzantine", info.Fault)
	}
	if got := r.FaultClass(2); got != FaultByzantine {
		t.Errorf("FaultClass = %v", got)
	}
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := r.FaultClass(2); got != FaultHonest {
		t.Errorf("FaultClass after Reset = %v, want honest", got)
	}
	if info := r.Step(2); info.Fault != FaultHonest {
		t.Errorf("post-Reset step carries %v", info.Fault)
	}
}

// TestNoRecycleDisablesRecycling: the config knob forces the arena
// recycler off on an otherwise recycling-eligible (machine, observer-free)
// runner — the precondition mutating directors rely on.
func TestNoRecycleDisablesRecycling(t *testing.T) {
	t.Parallel()
	plain, err := NewRunner(Config{N: 1, Machine: haltingMachine})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if !plain.mem.recycleOK {
		t.Fatal("machine-mode observer-free runner should recycle by default")
	}
	pinned, err := NewRunner(Config{N: 1, Machine: haltingMachine, NoRecycle: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	if pinned.mem.recycleOK {
		t.Error("NoRecycle runner still recycles")
	}
}

// TestMutatorSeesOldValue: MutateWrite receives the register's pre-write
// content and the intended value, and what it returns is what lands (both
// in memory and in the OnWrite callback).
func TestMutatorSeesOldValue(t *testing.T) {
	t.Parallel()
	type obs struct {
		old, value any
	}
	var seen []obs
	var landed []any
	d := &hookDirector{
		mutate: func(old, value any) any {
			seen = append(seen, obs{old, value})
			if v, ok := value.(int); ok {
				return v + 100
			}
			return value
		},
		onWrite: func(v any) { landed = append(landed, v) },
	}
	r, err := NewRunner(Config{N: 1, NoRecycle: true, Machine: func(p procset.ID, regs Registry) Machine {
		x := regs.Reg("x")
		i := 0
		var opBuf Op
		return MachineFunc(func(prev any) *Op {
			i++
			if i > 2 {
				return nil
			}
			opBuf = WriteOp(x, i)
			return &opBuf
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.RunDirected(d, 3, 0, nil)
	if len(seen) != 2 || seen[0] != (obs{nil, 1}) || seen[1] != (obs{101, 2}) {
		t.Errorf("mutator observations %+v, want [{<nil> 1} {101 2}]", seen)
	}
	if len(landed) != 2 || landed[0] != 101 || landed[1] != 102 {
		t.Errorf("OnWrite saw %v, want the mutated values [101 102]", landed)
	}
	if got := r.mem.values[r.mem.idOf("x")]; got != 102 {
		t.Errorf("register holds %v, want the mutated 102", got)
	}
}

// hookDirector adapts closures to DirectorRW for single-process tests.
type hookDirector struct {
	mutate  func(old, value any) any
	onWrite func(v any)
}

func (d *hookDirector) Next() procset.ID                            { return 1 }
func (d *hookDirector) OnWrite(slot RegID, p procset.ID, value any) { d.onWrite(value) }
func (d *hookDirector) MutateWrite(slot RegID, p procset.ID, old, value any) any {
	return d.mutate(old, value)
}
