package obs_test

import (
	"slices"
	"testing"

	"github.com/settimeliness/settimeliness/internal/obs"
	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// fuzzMaxSteps caps the schedule a fuzz input may describe at n ≤ 4; the
// cap halves for each process beyond 4. Every block boundary re-checks all
// pairs against the batch extractor (2,446 of them at n = 6), so this keeps
// one input in the tens of milliseconds and the fuzzer's minimisation of a
// new input from stalling the run.
const fuzzMaxSteps = 512

// FuzzTimeliness pins the online monitor to the batch Definition 1
// extractor on generated schedules. The input picks n in 2..6, the probed
// bound, a subset of the size classes, the block sizes and the schedule
// itself (one byte per step, mapped onto Πn).
// The monitor is fed in uneven blocks; at every block boundary each of its
// queries must equal sched's answer on the same prefix, sched.IsTimely
// must agree with its own full scan, and HeldClasses must equal
// sched.InSystem on every class i ≤ j of the family, at the probed bound
// (below 1 included) and at bounds −1 to 6. The schedule is then fed a second time
// after Reset, under the same checks, and a fresh twin of the same
// configuration (sharing the monitor's layout when it tracks the whole
// family) is fed the same blocks in turn, each the other way (one block or
// one Observe per step); at the end its tables must equal the batch
// extractor's and its Graph the replayed monitor's. When the top byte of
// the class mask is nonzero, the first feed stops after that many steps, so
// that Reset lands after a partial feed. The third byte picked a sliding
// window the monitor no longer has; it stays in the signature so the corpus
// keeps decoding.
func FuzzTimeliness(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb uint8, bound int8, _ uint8, classes uint32, split uint8, data []byte) {
		n := 2 + int(nb)%5
		if limit := fuzzMaxSteps >> max(0, n-4); len(data) > limit {
			data = data[:limit]
		}
		s := make(sched.Schedule, len(data))
		for k, b := range data {
			s[k] = procset.ID(1 + int(b)%n)
		}
		cfg := obs.MonitorConfig{N: n, Sizes: fuzzSizes(n, classes)}
		m, err := obs.NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed := s
		if cut := int(classes >> 24); cut > 0 {
			feed = s[:min(cut, len(s))]
		}
		var twin *obs.Monitor
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				m.Reset()
				feed = s
				if twin, err = obs.NewMonitor(cfg); err != nil {
					t.Fatal(err)
				}
			}
			for lo, k := 0, 0; lo < len(feed); k++ {
				hi := min(lo+1+(int(split)+k*k)%61, len(feed))
				feedBlock(m, feed[lo:hi], k%2 == pass)
				if twin != nil {
					feedBlock(twin, feed[lo:hi], k%2 != pass)
				}
				lo = hi
				checkPrefix(t, m, cfg, feed[:hi], int(bound))
			}
			if len(feed) == 0 {
				checkPrefix(t, m, cfg, feed, int(bound))
			}
		}
		checkPrefix(t, twin, cfg, s, int(bound))
		if got, want := twin.Graph(int(bound)), m.Graph(int(bound)); !slices.Equal(got, want) {
			t.Fatalf("twin's Graph %+v, replayed monitor's %+v", got, want)
		}
	})
}

// feedBlock feeds block to m in one ObserveBlock or one Observe per step.
func feedBlock(m *obs.Monitor, block sched.Schedule, whole bool) {
	if whole {
		m.ObserveBlock(block)
		return
	}
	for _, p := range block {
		m.Observe(p)
	}
}

// fuzzSizes picks the tracked classes: bit c of mask selects the c-th class
// (i, j) of the family in (i, j) order (c < 21, so the top byte is free). A
// mask that selects nothing means the whole family.
func fuzzSizes(n int, mask uint32) [][2]int {
	var sizes [][2]int
	c := 0
	for i := 1; i <= n; i++ {
		for j := i; j <= n; j++ {
			if mask&(1<<c) != 0 {
				sizes = append(sizes, [2]int{i, j})
			}
			c++
		}
	}
	return sizes
}
