package adversary

import (
	"math/rand/v2"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// refRoundRobin is the adversary's former base schedule, kept as the
// reference for the bitset cursor: a position into the sorted live members,
// advanced modulo their count past every parked process, releasing the
// process under the position when every live process is parked.
type refRoundRobin struct {
	order  []procset.ID
	pos    int
	parked procset.Set
}

func newRefRoundRobin(n int, crashed procset.Set) *refRoundRobin {
	return &refRoundRobin{order: procset.FullSet(n).Minus(crashed).Members()}
}

func (r *refRoundRobin) next() procset.ID {
	for range r.order {
		p := r.order[r.pos]
		r.pos = (r.pos + 1) % len(r.order)
		if !r.parked.Contains(p) {
			return p
		}
	}
	p := r.order[r.pos]
	r.pos = (r.pos + 1) % len(r.order)
	r.parked = r.parked.Remove(p)
	return p
}

// cursorAction is one step of a cursor script: park or release a set of
// processes (applied to both sides), or draw the next scheduling decision.
type cursorAction struct {
	park, release procset.Set
	draws         int
}

// runCursorScript replays actions on the reference and on the adversary,
// drawing through next (the adversary's Next or a Byzantine's that wraps
// it), and fails on the first differing decision or parked set.
func runCursorScript(t *testing.T, label string, ref *refRoundRobin, adv *Adversary, next func() procset.ID, actions []cursorAction) {
	t.Helper()
	for ai, act := range actions {
		ref.parked = ref.parked.Union(act.park).Minus(act.release)
		adv.parkedSet = adv.parkedSet.Union(act.park).Minus(act.release)
		for d := 0; d < act.draws; d++ {
			want, got := ref.next(), next()
			if want != got {
				t.Fatalf("%s: action %d draw %d: Next = %v, reference %v (parked %v)", label, ai, d, got, want, ref.parked)
			}
			if ref.parked != adv.parkedSet {
				t.Fatalf("%s: action %d draw %d: parked %v, reference %v", label, ai, d, adv.parkedSet, ref.parked)
			}
		}
	}
}

// TestCursorMatchesRoundRobin pins the bitset cursor of Adversary.next to
// the modulo round-robin it replaced, on hand-picked scripts — including
// the all-parked release fallback, a cursor past the highest id, and
// ResetCrashed between runs — and on random park/release scripts, both for
// a bare adversary and as a Byzantine director's Inner.
func TestCursorMatchesRoundRobin(t *testing.T) {
	t.Parallel()
	set := procset.MakeSet
	table := []struct {
		name    string
		n       int
		crashed procset.Set
		actions []cursorAction
	}{
		{"plain", 4, 0, []cursorAction{{draws: 9}}},
		{"crashed-middle", 5, set(2, 4), []cursorAction{{draws: 7}}},
		{"park-skip", 4, 0, []cursorAction{{draws: 1}, {park: set(2), draws: 5}, {release: set(2), draws: 5}}},
		{"all-parked", 3, 0, []cursorAction{{draws: 2}, {park: set(1, 2, 3), draws: 1}, {draws: 1}, {park: set(1, 2, 3), draws: 4}}},
		{"all-live-parked", 5, set(1, 5), []cursorAction{{draws: 1}, {park: set(2, 3, 4), draws: 3}, {park: set(2, 3, 4), draws: 6}}},
		{"single-live-parked", 3, set(1, 3), []cursorAction{{park: set(2), draws: 3}}},
		{"park-ahead-of-cursor", 6, 0, []cursorAction{{draws: 3}, {park: set(4, 5, 6), draws: 4}, {release: set(5), draws: 4}}},
		{"top-id", 64, 0, []cursorAction{{park: procset.FullSet(63), draws: 3}, {park: set(64), draws: 3}}},
		{"top-id-wrap", 64, procset.FullSet(62), []cursorAction{{draws: 5}, {park: set(63, 64), draws: 4}}},
	}
	for _, tc := range table {
		adv, err := New(Config{N: tc.n, CrashedFromStart: tc.crashed})
		if err != nil {
			t.Fatal(err)
		}
		runCursorScript(t, tc.name, newRefRoundRobin(tc.n, tc.crashed), adv, adv.Next, tc.actions)
	}

	rng := rand.New(rand.NewPCG(7, 22))
	randomSet := func(n int) procset.Set {
		return procset.Set(rng.Uint64()) & procset.FullSet(n)
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(procset.MaxProcs)
		if trial%3 == 0 {
			n = 1 + rng.IntN(6)
		}
		adv, err := New(Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		next := adv.Next
		wrapped := trial%2 == 1
		if wrapped {
			byz, err := NewByzantine(ByzantineConfig{N: n, Inner: adv})
			if err != nil {
				t.Fatal(err)
			}
			next = byz.Next
		}
		// Several runs per adversary, each after ResetCrashed, as the matrix
		// campaign pools it.
		for run := 0; run < 3; run++ {
			crashed := randomSet(n)
			if crashed == procset.FullSet(n) {
				crashed = crashed.Remove(procset.ID(1 + rng.IntN(n)))
			}
			if err := adv.ResetCrashed(crashed); err != nil {
				t.Fatal(err)
			}
			live := procset.FullSet(n).Minus(crashed)
			actions := make([]cursorAction, 40)
			for i := range actions {
				switch rng.IntN(4) {
				case 0:
					actions[i].park = randomSet(n) & live
				case 1:
					actions[i].release = randomSet(n)
				case 2:
					actions[i].park = live // the all-parked fallback
				}
				actions[i].draws = 1 + rng.IntN(2*n)
			}
			label := "random"
			if wrapped {
				label = "random-inner"
			}
			runCursorScript(t, label, newRefRoundRobin(n, crashed), adv, next, actions)
		}
	}
}
