package sched

import (
	"math/rand/v2"
	"slices"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// Budgets is a crash pattern compiled for SeedStream.Fill: entry p is how
// many steps process p may take, math.MaxInt for a process that never
// crashes. nil is the failure-free pattern. A Budgets is read-only once
// compiled, so one copy serves every stream of a campaign.
type Budgets []int

// CompileBudgets validates crashAfter against Πn, as Random does, and
// compiles it to Budgets.
func CompileBudgets(n int, crashAfter map[procset.ID]int) (Budgets, error) {
	if err := validateCrashMap(n, crashAfter); err != nil {
		return nil, err
	}
	if len(crashAfter) == 0 {
		return nil, nil
	}
	b := make(Budgets, n+1)
	fillBudgets(b, crashAfter)
	return b, nil
}

// SeedStream serves the schedules of one seed under many crash patterns
// from a single draw stream. A crashed process only stops appearing, so
// Random(n, seed, pattern) makes the same draws for every pattern and
// differs only in which it rejects: SeedStream draws the seed's
// crash-free stream once, caches it, and makes each pattern's schedule a
// filter over the cache, drawing the cache on from where it stopped when a
// pattern's rejections need more. A new seed restarts the cache.
type SeedStream struct {
	src    random   // crash-free, positioned after draws
	seed   int64    // the seed draws belong to, once seeded
	seeded bool     // false until the first Fill
	draws  Schedule // the seed's crash-free draws so far
	rem    []int    // the budgets left to the pattern being filled
}

// NewSeedStream returns a stream over Πn, unseeded until its first Fill.
func NewSeedStream(n int) (*SeedStream, error) {
	if err := validateCrashMap(n, nil); err != nil {
		return nil, err
	}
	return &SeedStream{src: random{n: n, pcg: new(rand.PCG)}, rem: make([]int, n+1)}, nil
}

// Fill writes to dst exactly what Take(Random(n, seed, crashAfter),
// len(dst)) returns, where b = CompileBudgets(n, crashAfter).
func (s *SeedStream) Fill(dst []procset.ID, seed int64, b Budgets) {
	if !s.seeded || seed != s.seed {
		s.src.pcg.Seed(uint64(seed), pcgStream)
		s.seed, s.seeded, s.draws = seed, true, s.draws[:0]
	}
	if b == nil {
		s.extend(len(dst))
		copy(dst, s.draws)
		return
	}
	copy(s.rem, b)
	for kept, used := 0, 0; kept < len(dst); {
		s.extend(used + len(dst) - kept)
		k, u := filter(dst[kept:], s.draws[used:], s.rem)
		kept, used = kept+k, used+u
	}
}

// extend draws the crash-free stream on until the cache holds at least k
// draws.
func (s *SeedStream) extend(k int) {
	if have := len(s.draws); k > have {
		s.draws = slices.Grow(s.draws, k-have)[:k]
		s.src.draw(s.draws[have:])
	}
}
