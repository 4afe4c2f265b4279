package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/settimeliness/settimeliness/internal/procset"
)

func mustParse(t *testing.T, text string) Schedule {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return s
}

func TestMaxQGapBasic(t *testing.T) {
	t.Parallel()
	p := procset.MakeSet(1)
	q := procset.MakeSet(2)
	tests := []struct {
		name string
		s    string
		want int
	}{
		{"empty", "", 0},
		{"alternating", "p1 p2 p1 p2", 1},
		{"gap of three", "p1 p2 p2 p2 p1", 3},
		{"trailing gap counts", "p1 p2 p2", 2},
		{"no P at all", "p2 p2 p2 p2", 4},
		{"no Q at all", "p1 p1 p1", 0},
		{"other processes ignored", "p1 p3 p3 p2 p3 p1", 1},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := MaxQGap(mustParse(t, tc.s), p, q); got != tc.want {
				t.Errorf("MaxQGap = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestMaxQGapOverlappingSets(t *testing.T) {
	t.Parallel()
	// A step of a process in P ∩ Q terminates P-free windows.
	p := procset.MakeSet(1, 2)
	q := procset.MakeSet(2, 3)
	s := mustParse(t, "p3 p3 p2 p3 p3 p3 p1 p3")
	// Windows: [p3 p3] before p2 -> 2 Q-steps; [p3 p3 p3] -> 3; trailing [p3] -> 1.
	if got := MaxQGap(s, p, q); got != 3 {
		t.Errorf("MaxQGap = %d, want 3", got)
	}
}

func TestIsTimelyAndMinBound(t *testing.T) {
	t.Parallel()
	p := procset.MakeSet(1)
	q := procset.MakeSet(2)
	s := mustParse(t, "p2 p2 p1 p2 p1")
	if MinBound(s, p, q) != 3 {
		t.Fatalf("MinBound = %d, want 3", MinBound(s, p, q))
	}
	if IsTimely(s, p, q, 2) {
		t.Error("IsTimely with bound 2 should be false")
	}
	if !IsTimely(s, p, q, 3) {
		t.Error("IsTimely with bound 3 should be true")
	}
	if IsTimely(s, p, q, 0) {
		t.Error("IsTimely with bound 0 must be false")
	}
}

func TestFigure1Claims(t *testing.T) {
	t.Parallel()
	// The paper's Figure 1: in S = [(p1·q)^i (p2·q)^i], neither {p1} nor {p2}
	// is timely w.r.t. {q} (their minimal bounds grow without bound as the
	// prefix grows) but the virtual process {p1,p2} is timely w.r.t. {q}:
	// every q step is preceded by a p step, so any window with 2 q-steps
	// contains a p step and the minimal Definition 1 bound is 2.
	p1 := procset.MakeSet(1)
	p2 := procset.MakeSet(2)
	pair := procset.MakeSet(1, 2)
	q := procset.MakeSet(3)

	prev1, prev2 := 0, 0
	for rounds := 2; rounds <= 40; rounds += 6 {
		s := Figure1Prefix(1, 2, 3, rounds)
		b1 := MinBound(s, p1, q)
		b2 := MinBound(s, p2, q)
		bp := MinBound(s, pair, q)
		if b1 <= prev1 || b2 <= prev2 {
			t.Fatalf("singleton bounds must diverge: rounds=%d b1=%d (prev %d) b2=%d (prev %d)",
				rounds, b1, prev1, b2, prev2)
		}
		prev1, prev2 = b1, b2
		if bp != 2 {
			t.Fatalf("pair bound = %d at rounds=%d, want 2", bp, rounds)
		}
	}
}

func TestFigure1SourceMatchesPrefix(t *testing.T) {
	t.Parallel()
	src, err := Figure1(3, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := Figure1Prefix(1, 2, 3, 5)
	got := Take(src, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: source %v, prefix %v", i, got[i], want[i])
		}
	}
	if src.Correct() != procset.MakeSet(1, 2, 3) {
		t.Errorf("Correct() = %v", src.Correct())
	}
}

func TestFigure1Errors(t *testing.T) {
	t.Parallel()
	if _, err := Figure1(3, 1, 1, 2); err == nil {
		t.Error("duplicate processes accepted")
	}
	if _, err := Figure1(3, 1, 2, 4); err == nil {
		t.Error("out-of-range process accepted")
	}
}

func TestObservation5SelfTimeliness(t *testing.T) {
	t.Parallel()
	// Observation 5: every set is timely with respect to itself with bound 1
	// in any schedule, so S^i_{i,n} is the asynchronous system.
	f := func(raw []uint8, setBits uint64) bool {
		s := make(Schedule, 0, len(raw))
		for _, b := range raw {
			s = append(s, procset.ID(int(b)%8+1))
		}
		set := procset.Set(setBits % 256) // subsets of Π8
		if set.IsEmpty() {
			set = procset.MakeSet(1)
		}
		return MinBound(s, set, set) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservation3Monotonicity(t *testing.T) {
	t.Parallel()
	// Observation 3: P ⊆ P' and Q' ⊆ Q implies the relation survives:
	// MinBound(P',Q') <= MinBound(P,Q).
	f := func(raw []uint8, pb, qb, pb2, qb2 uint64) bool {
		s := make(Schedule, 0, len(raw))
		for _, b := range raw {
			s = append(s, procset.ID(int(b)%8+1))
		}
		p := procset.Set(pb % 256)
		pPrime := p.Union(procset.Set(pb2 % 256))
		q := procset.Set(qb % 256)
		qPrime := q.Intersect(procset.Set(qb2 % 256))
		if p.IsEmpty() {
			p = procset.MakeSet(1)
			pPrime = pPrime.Union(p)
		}
		return MinBound(s, pPrime, qPrime) <= MinBound(s, p, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservation2Union(t *testing.T) {
	t.Parallel()
	// Observation 2: bounds compose for unions: if P timely w.r.t. Q with b1
	// and P' timely w.r.t. Q' with b2, then P∪P' timely w.r.t. Q∪Q' — the
	// union bound never exceeds b1+b2 (each window with b1+b2 steps of Q∪Q'
	// has b1 of Q or b2 of Q').
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := make(Schedule, 120)
		for i := range s {
			s[i] = procset.ID(rng.Intn(6) + 1)
		}
		p := randomNonemptySet(rng, 6)
		q := randomNonemptySet(rng, 6)
		p2 := randomNonemptySet(rng, 6)
		q2 := randomNonemptySet(rng, 6)
		b1 := MinBound(s, p, q)
		b2 := MinBound(s, p2, q2)
		got := MinBound(s, p.Union(p2), q.Union(q2))
		if got > b1+b2 {
			t.Fatalf("union bound %d exceeds %d+%d for s=%v p=%v q=%v p'=%v q'=%v",
				got, b1, b2, s, p, q, p2, q2)
		}
	}
}

func randomNonemptySet(rng *rand.Rand, n int) procset.Set {
	for {
		s := procset.Set(rng.Uint64()) & procset.FullSet(n)
		if !s.IsEmpty() {
			return s
		}
	}
}

func TestBestPairSelfTimelinessWins(t *testing.T) {
	t.Parallel()
	// For i = j, BestPair always finds a self pair P = Q with bound 1
	// (Observation 5): S^i_{i,n} is the asynchronous system.
	s := mustParse(t, "p1 p3 p4 p2 p3 p4 p1 p3 p4 p2 p3 p4 p1")
	best := BestPair(s, 4, 2, 2)
	if best.MinBound != 1 {
		t.Fatalf("BestPair bound = %d, want 1 (self-timeliness)", best.MinBound)
	}
}

func TestBestPairPlantedDisjointPair(t *testing.T) {
	t.Parallel()
	// With i < j self pairs are impossible. The planted relation
	// {p1,p2} w.r.t. {p2,p3,p4} has gaps of 2 (bound 3); pairs with P ⊆ Q
	// overlap tricks can do better (P={p3,p4} resets on almost every step),
	// so BestPair must return a bound no worse than the planted one.
	s := mustParse(t, "p1 p3 p4 p2 p3 p4 p1 p3 p4 p2 p3 p4 p1")
	planted := MinBound(s, procset.MakeSet(1, 2), procset.MakeSet(2, 3, 4))
	if planted != 3 {
		t.Fatalf("planted pair bound = %d, want 3", planted)
	}
	best := BestPair(s, 4, 2, 3)
	if best.MinBound > planted {
		t.Fatalf("BestPair bound = %d, worse than planted %d", best.MinBound, planted)
	}
}

func TestInSystem(t *testing.T) {
	t.Parallel()
	s := Figure1Prefix(1, 2, 3, 12)
	// {p1,p2} timely w.r.t. {q} with bound 1 -> schedule is in S^2_1? No:
	// the family requires i <= j; {p1,p2} vs {p3} has i=2 > j=1 so it is not
	// part of the family. But Observation 3 lifts it: {p1,p2} timely w.r.t.
	// any superset of... supersets of Q make timeliness harder. Instead use
	// i=2, j=3: Q = {p1,p2,p3} ⊇ {q}? Enlarging Q is harder. Check the
	// direct containments instead.
	if !InSystem(s, 3, 2, 2, 4) {
		// P = {p1,p2}, Q = {p3, x}: gaps w.r.t. q are 0; adding another
		// process to Q can only add steps of p1/p2/p3 themselves.
		t.Error("Figure1 prefix should witness S^2_{2,3} with small bound")
	}
	if InSystem(s, 3, 2, 1, 64) {
		t.Error("i > j systems are not in the family")
	}
	// q itself takes every other step, so {q} is timely w.r.t. Π3 with
	// bound 2 — but no singleton can be timely with bound 1.
	if InSystem(s, 3, 1, 3, 1) {
		t.Error("no singleton can be timely w.r.t. Π3 with bound 1")
	}
	if !IsTimely(s, procset.MakeSet(3), procset.FullSet(3), 3) {
		t.Error("{q} should be timely w.r.t. Π3 (it takes every other step)")
	}
	if IsTimely(s, procset.MakeSet(1), procset.FullSet(3), 5) {
		t.Error("{p1} must not be timely w.r.t. Π3 (starved during p2 phases)")
	}
}

func TestGapProfile(t *testing.T) {
	t.Parallel()
	p := procset.MakeSet(1)
	q := procset.MakeSet(2)
	s := mustParse(t, "p2 p1 p2 p2 p1 p2")
	got := GapProfile(s, p, q)
	want := []int{1, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("GapProfile = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GapProfile = %v, want %v", got, want)
		}
	}
}

func TestScheduleAlgebra(t *testing.T) {
	t.Parallel()
	a := mustParse(t, "p1 p2")
	b := mustParse(t, "p3")
	if got := a.Concat(b).String(); got != "p1 p2 p3" {
		t.Errorf("Concat = %q", got)
	}
	if got := b.Repeat(3).String(); got != "p3 p3 p3" {
		t.Errorf("Repeat = %q", got)
	}
	if got := b.Repeat(0); got != nil {
		t.Errorf("Repeat(0) = %v", got)
	}
	if got := a.Concat(b).Steps(procset.MakeSet(1, 3)); got != 2 {
		t.Errorf("Steps = %d", got)
	}
	if got := a.Participants(); got != procset.MakeSet(1, 2) {
		t.Errorf("Participants = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	if _, err := Parse("p1 bogus"); err == nil {
		t.Error("Parse accepted bogus token")
	}
	if _, err := Parse("p0"); err == nil {
		t.Error("Parse accepted p0")
	}
	if _, err := Parse("p65"); err == nil {
		t.Error("Parse accepted p65")
	}
	s, err := Parse("")
	if err != nil || len(s) != 0 {
		t.Errorf("Parse empty = %v, %v", s, err)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(raw []uint8) bool {
		s := make(Schedule, 0, len(raw))
		for _, b := range raw {
			s = append(s, procset.ID(int(b)%procset.MaxProcs+1))
		}
		back, err := Parse(s.String())
		if err != nil || len(back) != len(s) {
			return false
		}
		for i := range s {
			if back[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
