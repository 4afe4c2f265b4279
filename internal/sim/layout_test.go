package sim

import (
	"slices"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// layoutKey is the test's cache key: a name plus a size, the shape the
// protocol packages key their layouts by.
type layoutKey struct {
	name string
	n    int
}

// TestLayoutPerRunner pins the layout cache's scope: every runner builds a
// key's layout exactly once — at construction, whatever the number of
// Resets, observed or not — and two runners built from one factory share no
// Ref.
func TestLayoutPerRunner(t *testing.T) {
	builds := 0
	seen := make(map[Registry][]Ref)
	factory := func(p procset.ID, regs Registry) Machine {
		refs := Layout(regs, layoutKey{"x", 2}, func() []Ref {
			builds++
			return []Ref{regs.Reg("x[1]"), regs.Reg("x[2]")}
		})
		seen[regs] = refs
		i := 0
		var opBuf Op
		return MachineFunc(func(any) *Op {
			i++
			opBuf = ReadOp(refs[i%len(refs)])
			return &opBuf
		})
	}
	plain, err := NewRunner(Config{N: 3, Machine: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	observed, err := NewRunner(Config{N: 3, Machine: factory, Observer: func(StepInfo) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer observed.Close()
	for i := 0; i < 3; i++ {
		for _, r := range []*Runner{plain, observed} {
			r.RunSchedule([]procset.ID{1, 2, 3, 1})
			if err := r.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if builds != 2 {
		t.Fatalf("layout built %d times across two runners, want 2", builds)
	}
	if len(seen) != 2 {
		t.Fatalf("factories saw %d registries, want 2", len(seen))
	}
	if plain.Registers() != 2 || observed.Registers() != 2 {
		t.Fatalf("registers: plain %d, observed %d, want 2 each", plain.Registers(), observed.Registers())
	}
	var all [][]Ref
	for _, refs := range seen {
		all = append(all, refs)
	}
	for _, a := range all[0] {
		for _, b := range all[1] {
			if a == b {
				t.Fatalf("runners share register %s", a.Name())
			}
		}
	}
}

// TestLayoutLookupAllocs pins the lookup's cost: a cached layout comes back
// without allocating, even under a key holding a string.
func TestLayoutLookupAllocs(t *testing.T) {
	r, err := NewRunner(Config{N: 1, Machine: func(p procset.ID, regs Registry) Machine {
		return MachineFunc(func(any) *Op { return nil })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	build := func() *int { return new(int) }
	want := Layout[layoutKey, *int](r.mem, layoutKey{"y", 4}, build)
	allocs := testing.AllocsPerRun(100, func() {
		if Layout[layoutKey, *int](r.mem, layoutKey{"y", 4}, build) != want {
			t.Fatal("lookup returned a different layout")
		}
	})
	if allocs != 0 {
		t.Fatalf("cached lookup allocates %.1f times, want 0", allocs)
	}
}

// TestLayoutOutsideRunner pins the fallback: a registry that is not a
// runner's has no cache, so every call builds.
func TestLayoutOutsideRunner(t *testing.T) {
	builds := 0
	regs := fakeRegistry{}
	for i := 0; i < 3; i++ {
		Layout(regs, layoutKey{"z", 1}, func() int { builds++; return builds })
	}
	if builds != 3 {
		t.Fatalf("built %d times, want 3", builds)
	}
}

type fakeRegistry struct{}

func (fakeRegistry) Reg(name string) Ref { return &register{name: name} }

// rearmCounter reads one register forever and logs its rearms.
type rearmCounter struct {
	self  procset.ID
	reg   Ref
	log   *[]procset.ID
	reads int
	op    Op
}

func (m *rearmCounter) NextOp(any) *Op {
	m.reads++
	m.op = ReadOp(m.reg)
	return &m.op
}

func (m *rearmCounter) Rearm() {
	*m.log = append(*m.log, m.self)
	m.reads = 0
}

// TestResetRearms pins how Reset consults Rearmer: a machine that
// implements it is rearmed in place, in process order, and kept (its
// factory runs once per process for the runner's lifetime, observed or
// not); a machine that does not is rebuilt by its factory on every Reset.
func TestResetRearms(t *testing.T) {
	for _, observed := range []bool{false, true} {
		builds := 0
		var log []procset.ID
		factory := func(p procset.ID, regs Registry) Machine {
			builds++
			if p == 2 {
				return MachineFunc(func(any) *Op { return nil })
			}
			return &rearmCounter{self: p, reg: regs.Reg("r"), log: &log}
		}
		cfg := Config{N: 3, Machine: factory}
		if observed {
			cfg.Observer = func(StepInfo) {}
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := r.procAt(3).machine
		for i := 0; i < 4; i++ {
			r.RunSchedule([]procset.ID{1, 3, 1, 2})
			if err := r.Reset(); err != nil {
				t.Fatal(err)
			}
			m := r.procAt(3).machine.(*rearmCounter)
			if m != first {
				t.Fatalf("observed=%v: p3's machine was replaced on Reset", observed)
			}
			if m.reads != 0 {
				t.Fatalf("observed=%v: p3 kept %d reads across Reset", observed, m.reads)
			}
		}
		r.Close()
		if builds != 3+4 {
			t.Fatalf("observed=%v: %d factory calls after 4 Resets, want 7", observed, builds)
		}
		if want := []procset.ID{1, 3, 1, 3, 1, 3, 1, 3}; !slices.Equal(log, want) {
			t.Fatalf("observed=%v: rearms %v, want %v", observed, log, want)
		}
	}
}
