package sched

import (
	"math/rand/v2"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

func TestRoundRobinFailureFree(t *testing.T) {
	t.Parallel()
	src, err := RoundRobin(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := Take(src, 8)
	want := mustParse(t, "p1 p2 p3 p4 p1 p2 p3 p4")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %v, want %v", i, got[i], want[i])
		}
	}
	if src.Correct() != procset.FullSet(4) {
		t.Errorf("Correct = %v", src.Correct())
	}
}

func TestRoundRobinCrash(t *testing.T) {
	t.Parallel()
	src, err := RoundRobin(3, map[procset.ID]int{2: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := Take(src, 10)
	if got := s.Steps(procset.MakeSet(2)); got != 2 {
		t.Errorf("crashed process took %d steps, want 2", got)
	}
	if src.Correct() != procset.MakeSet(1, 3) {
		t.Errorf("Correct = %v", src.Correct())
	}
	// After the crash the remaining processes still alternate.
	tail := s[len(s)-4:]
	if tail.Participants() != procset.MakeSet(1, 3) {
		t.Errorf("tail participants = %v", tail.Participants())
	}
}

func TestRoundRobinCrashAtZero(t *testing.T) {
	t.Parallel()
	src, err := RoundRobin(3, map[procset.ID]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := Take(src, 6)
	if s.Steps(procset.MakeSet(1)) != 0 {
		t.Error("process crashed at 0 still took steps")
	}
}

func TestCrashMapValidation(t *testing.T) {
	t.Parallel()
	if _, err := RoundRobin(2, map[procset.ID]int{1: 1, 2: 1}); err == nil {
		t.Error("all-crash schedule accepted")
	}
	if _, err := RoundRobin(2, map[procset.ID]int{3: 1}); err == nil {
		t.Error("out-of-range crash id accepted")
	}
	if _, err := RoundRobin(2, map[procset.ID]int{1: -1}); err == nil {
		t.Error("negative crash step accepted")
	}
	if _, err := RoundRobin(0, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Random(0, 1, nil); err == nil {
		t.Error("Random n=0 accepted")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a, err := Random(5, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(5, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := Take(a, 50), Take(b, 50)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	c, err := Random(5, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := Take(c, 50)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestRandomRespectsCrashes(t *testing.T) {
	t.Parallel()
	src, err := Random(4, 1, map[procset.ID]int{4: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := Take(src, 200)
	if got := s.Steps(procset.MakeSet(4)); got != 3 {
		t.Errorf("crashed process took %d steps, want 3", got)
	}
	if err := Validate(src, 100); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSetTimelyEnforcesBound(t *testing.T) {
	t.Parallel()
	p := procset.MakeSet(1)
	q := procset.MakeSet(2, 3)
	for _, bound := range []int{2, 3, 5} {
		base, err := Random(5, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, err := SetTimely(base, p, q, bound)
		if err != nil {
			t.Fatal(err)
		}
		s := Take(src, 5000)
		if got := MaxQGap(s, p, q); got >= bound {
			t.Errorf("bound %d: MaxQGap = %d", bound, got)
		}
	}
}

func TestSetTimelyPreservesInnerWhenAlreadyTimely(t *testing.T) {
	t.Parallel()
	// Round-robin over 3 processes already has every singleton timely w.r.t.
	// everything with bound 2; with a generous bound no steps are injected.
	base, err := RoundRobin(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := SetTimely(base, procset.MakeSet(1), procset.MakeSet(2, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	got := Take(src, 9)
	want := mustParse(t, "p1 p2 p3 p1 p2 p3 p1 p2 p3")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %v, want %v (no injection expected)", i, got[i], want[i])
		}
	}
}

func TestSetTimelyWithOverlap(t *testing.T) {
	t.Parallel()
	// P ∩ Q nonempty: steps of the overlap reset the gap.
	base, err := Random(4, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := procset.MakeSet(1, 2)
	q := procset.MakeSet(2, 3, 4)
	src, err := SetTimely(base, p, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := Take(src, 3000)
	if got := MaxQGap(s, p, q); got >= 2 {
		t.Errorf("MaxQGap = %d, want < 2", got)
	}
}

func TestSetTimelyValidation(t *testing.T) {
	t.Parallel()
	base, err := Random(3, 1, map[procset.ID]int{3: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetTimely(base, procset.MakeSet(3), procset.MakeSet(1), 2); err == nil {
		t.Error("crashed P accepted")
	}
	if _, err := SetTimely(base, procset.MakeSet(1), procset.MakeSet(2), 0); err == nil {
		t.Error("bound 0 accepted")
	}
	if _, err := SetTimely(base, procset.MakeSet(1), procset.MakeSet(2), 1); err == nil {
		t.Error("bound 1 with a correct process in Q∖P accepted")
	}
	// Bound 1 is fine when Q∖P is crashed or empty.
	if _, err := SetTimely(base, procset.MakeSet(1), procset.MakeSet(1, 3), 1); err != nil {
		t.Errorf("bound 1 with crashed Q∖P rejected: %v", err)
	}
	if _, err := SetTimely(base, procset.EmptySet, procset.MakeSet(2), 1); err == nil {
		t.Error("empty P accepted")
	}
	if _, err := SetTimely(base, procset.MakeSet(1), procset.MakeSet(4), 1); err == nil {
		t.Error("Q outside Πn accepted")
	}
}

func TestRotatingStarverStarvesKSets(t *testing.T) {
	t.Parallel()
	n, k := 4, 2
	src, err := RotatingStarver(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Longer and longer prefixes: every k-set's MinBound w.r.t. Πn must keep
	// growing (no k-set is timely), while every (k+1)-set stays bounded.
	full := procset.FullSet(n)
	prevWorstK := 0
	for _, steps := range []int{500, 2000, 8000} {
		s := Take(src, steps) // cumulative: sources are stateful
		_ = s
		prefix := Take(mustStarver(t, n, k), stepsTotal(steps))
		bestK := BestPair(prefix, n, k, n).MinBound
		if bestK <= prevWorstK {
			t.Fatalf("best k-set bound should diverge: %d after %d steps (prev %d)",
				bestK, stepsTotal(steps), prevWorstK)
		}
		prevWorstK = bestK
		bestK1 := BestPair(prefix, n, k+1, n).MinBound
		if bestK1 > 2*n {
			t.Fatalf("(k+1)-sets should stay timely: bound %d", bestK1)
		}
		_ = full
	}
}

func mustStarver(t *testing.T, n, k int) Source {
	t.Helper()
	src, err := RotatingStarver(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func stepsTotal(s int) int { return s }

func TestRotatingStarverAllCorrect(t *testing.T) {
	t.Parallel()
	src, err := RotatingStarver(5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src.Correct() != procset.FullSet(5) {
		t.Errorf("Correct = %v", src.Correct())
	}
	if err := Validate(src, 4000); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// After construction the starver draws its steps without allocating,
// across many phases (512 steps a block, phases of 4r steps in round r).
func TestRotatingStarverNextBlockAllocs(t *testing.T) {
	src := mustStarver(t, 6, 2).(BlockSource)
	buf := make(Schedule, 512)
	if avg := testing.AllocsPerRun(50, func() { src.NextBlock(buf) }); avg != 0 {
		t.Fatalf("NextBlock allocates %.1f times per block", avg)
	}
}

func TestRotatingStarverValidation(t *testing.T) {
	t.Parallel()
	if _, err := RotatingStarver(3, 3, 1); err == nil {
		t.Error("k = n accepted")
	}
	if _, err := RotatingStarver(3, 0, 1); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := RotatingStarver(1, 1, 1); err == nil {
		t.Error("n = 1 accepted")
	}
	if _, err := RotatingStarver(3, 1, 0); err == nil {
		t.Error("growth = 0 accepted")
	}
}

func TestSystemConformance(t *testing.T) {
	t.Parallel()
	tests := []struct {
		n, i, j int
		crashes map[procset.ID]int
	}{
		{5, 2, 3, nil},
		{5, 2, 3, map[procset.ID]int{5: 4}},
		{6, 1, 4, map[procset.ID]int{2: 0, 3: 10}},
		{4, 3, 3, nil},
		{4, 1, 1, nil},
	}
	for _, tc := range tests {
		src, pair, err := System(tc.n, tc.i, tc.j, 4, 11, tc.crashes)
		if err != nil {
			t.Fatalf("System(%d,%d,%d): %v", tc.n, tc.i, tc.j, err)
		}
		if pair.P.Size() != tc.i || pair.Q.Size() != tc.j {
			t.Fatalf("witness sizes %d/%d, want %d/%d", pair.P.Size(), pair.Q.Size(), tc.i, tc.j)
		}
		s := Take(src, 4000)
		if got := MaxQGap(s, pair.P, pair.Q); got >= 4 {
			t.Errorf("System(%d,%d,%d): MaxQGap = %d, want < 4", tc.n, tc.i, tc.j, got)
		}
		if !InSystem(s, tc.n, tc.i, tc.j, 4) {
			t.Errorf("System(%d,%d,%d): schedule not in S^%d_%d", tc.n, tc.i, tc.j, tc.i, tc.j)
		}
	}
}

func TestSystemValidation(t *testing.T) {
	t.Parallel()
	if _, _, err := System(4, 3, 2, 2, 1, nil); err == nil {
		t.Error("i > j accepted")
	}
	if _, _, err := System(4, 1, 5, 2, 1, nil); err == nil {
		t.Error("j > n accepted")
	}
	// P may contain crashed processes: with process 1 crashed, P must be
	// padded to size 3 and the guarantee still enforced via the correct
	// members.
	src, pair, err := System(3, 3, 3, 2, 1, map[procset.ID]int{1: 0})
	if err != nil {
		t.Fatalf("crashed-padded P rejected: %v", err)
	}
	if pair.P != procset.FullSet(3) {
		t.Errorf("padded P = %v, want Π3", pair.P)
	}
	if got := MaxQGap(Take(src, 2000), pair.P, pair.Q); got >= 2 {
		t.Errorf("MaxQGap = %d, want < 2", got)
	}
}

func TestReplaySource(t *testing.T) {
	t.Parallel()
	steps := mustParse(t, "p1 p2")
	cycle := mustParse(t, "p3 p1")
	src, err := Replay(3, steps, cycle)
	if err != nil {
		t.Fatal(err)
	}
	got := Take(src, 6).String()
	if got != "p1 p2 p3 p1 p3 p1" {
		t.Errorf("Replay = %q", got)
	}
	if src.Correct() != procset.MakeSet(1, 3) {
		t.Errorf("Correct = %v", src.Correct())
	}
	if _, err := Replay(3, steps, nil); err == nil {
		t.Error("empty cycle accepted")
	}
	if _, err := Replay(2, steps, mustParse(t, "p3")); err == nil {
		t.Error("cycle outside Πn accepted")
	}
}

func TestValidateRejectsLiars(t *testing.T) {
	t.Parallel()
	// A source whose declared correct set never shows up must be caught.
	src := liarSource{}
	if err := Validate(src, 100); err == nil {
		t.Error("Validate accepted a liar source")
	}
}

type liarSource struct{}

func (liarSource) Next() procset.ID     { return 1 }
func (liarSource) N() int               { return 3 }
func (liarSource) Correct() procset.Set { return procset.MakeSet(1, 2) }

// TestRandomIntNMatchesRandV2 pins random.intN to math/rand/v2's bounded
// draw: the direct-PCG fast path must produce bit-identical streams to
// rand.New(PCG).IntN for every modulus the sources use, or seeds would stop
// reproducing historical schedules.
func TestRandomIntNMatchesRandV2(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 100} {
		for seed := int64(0); seed < 4; seed++ {
			r := &random{n: n, pcg: newPCG(seed)}
			ref := rand.New(newPCG(seed))
			for i := 0; i < 2000; i++ {
				got := int(r.intN(uint64(n)))
				want := ref.IntN(n)
				if got != want {
					t.Fatalf("n=%d seed=%d draw %d: intN = %d, rand/v2 = %d", n, seed, i, got, want)
				}
			}
		}
	}
}
