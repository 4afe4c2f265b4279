package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// starverGoldenSteps is the length of every frozen starver stream.
const starverGoldenSteps = 20_000

// starverGoldenCases are the frozen (n, k, growth) triples: every k at
// small n, both ends of k at n = 64, and growths above 1.
var starverGoldenCases = [][3]int{
	{2, 1, 1}, {3, 1, 1}, {3, 2, 2}, {4, 1, 1}, {4, 2, 1}, {4, 3, 3},
	{5, 2, 1}, {5, 4, 2}, {6, 1, 1}, {6, 3, 2}, {6, 5, 1}, {9, 4, 1},
	{64, 1, 1}, {64, 63, 2},
}

// starverStream draws starverGoldenSteps steps of RotatingStarver(n, k,
// growth), through Next when blocks is false and through NextBlock in
// uneven blocks otherwise.
func starverStream(t *testing.T, n, k, growth int, blocks bool) []byte {
	t.Helper()
	src, err := RotatingStarver(n, k, growth)
	if err != nil {
		t.Fatal(err)
	}
	s := make(Schedule, starverGoldenSteps)
	if blocks {
		bs := src.(BlockSource)
		for lo, b := 0, 0; lo < len(s); b++ {
			hi := min(lo+1+(b*b+7*b)%97, len(s))
			bs.NextBlock(s[lo:hi])
			lo = hi
		}
	} else {
		for i := range s {
			s[i] = src.Next()
		}
	}
	out := make([]byte, len(s))
	for i, p := range s {
		out[i] = byte(p)
	}
	return out
}

// TestRotatingStarverMatchesGolden pins the starver's step stream, drawn
// step by step and in uneven blocks, against SHA-256 digests in
// testdata/starver_digests.txt (one byte per step).
func TestRotatingStarverMatchesGolden(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile("testdata/starver_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			want[f[0]] = f[1]
		}
	}
	for _, c := range starverGoldenCases {
		n, k, growth := c[0], c[1], c[2]
		name := fmt.Sprintf("n=%d/k=%d/growth=%d", n, k, growth)
		for _, blocks := range []bool{false, true} {
			sum := sha256.Sum256(starverStream(t, n, k, growth, blocks))
			got := hex.EncodeToString(sum[:])
			if w, ok := want[name]; !ok {
				t.Errorf("no golden digest for %s (got %s)", name, got)
			} else if got != w {
				t.Errorf("%s (blocks %v): digest %s, golden %s", name, blocks, got, w)
			}
		}
	}
}
