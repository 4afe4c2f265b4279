package sched

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

func TestInterleaveBlocks(t *testing.T) {
	t.Parallel()
	a, err := RoundRobin(4, map[procset.ID]int{3: 0, 4: 0}) // emits p1 p2
	if err != nil {
		t.Fatal(err)
	}
	b, err := RoundRobin(4, map[procset.ID]int{1: 0, 2: 0}) // emits p3 p4
	if err != nil {
		t.Fatal(err)
	}
	src, err := Interleave(a, b, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := Take(src, 9).String()
	want := "p1 p2 p3 p1 p2 p4 p1 p2 p3"
	if got != want {
		t.Errorf("Interleave = %q, want %q", got, want)
	}
	if src.Correct() != procset.FullSet(4) {
		t.Errorf("Correct = %v", src.Correct())
	}
}

func TestInterleaveValidation(t *testing.T) {
	t.Parallel()
	a, err := RoundRobin(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RoundRobin(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Interleave(a, b, 1, 1); err == nil {
		t.Error("different n accepted")
	}
	c, err := RoundRobin(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Interleave(a, c, 0, 1); err == nil {
		t.Error("zero block accepted")
	}
}

// TestSpeedIsNotTimeliness skews a schedule towards p1: 100-step bursts of
// p1, each followed by one step of a seeded random source over Π3. p2 and
// p3 still step infinitely often, but speed is not timeliness: between two
// p2 steps lie at least 100 p1 steps, so {p2} is timely with respect to Π3
// at no bound below 101, while the fast p1 waits at most one step.
func TestSpeedIsNotTimeliness(t *testing.T) {
	t.Parallel()
	fast, err := RoundRobin(3, map[procset.ID]int{2: 0, 3: 0})
	if err != nil {
		t.Fatal(err)
	}
	rest, err := Random(3, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Interleave(fast, rest, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Take(src, 50_000)
	if c2 := s.Steps(procset.MakeSet(2)); c2 == 0 {
		t.Fatal("slow process p2 never scheduled")
	}
	if c1 := s.Steps(procset.MakeSet(1)); c1 < 99*len(s)/100 {
		t.Errorf("fast process took %d of %d steps, want at least 99%%", c1, len(s))
	}
	if slow := MinBound(s, procset.MakeSet(2), procset.FullSet(3)); slow < 101 {
		t.Errorf("slow process unexpectedly timely: bound %d", slow)
	}
	if quick := MinBound(s, procset.MakeSet(1), procset.FullSet(3)); quick > 2 {
		t.Errorf("fast process has bound %d, want at most 2", quick)
	}
}
