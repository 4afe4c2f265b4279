package explore

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
)

// fuzzPatterns decodes 1–8 crash patterns over Πn. Each is a mask byte
// naming the crashed processes, then one budget byte per crashed process
// (budget 3×byte, so 0 and budgets past a 600-step schedule both occur).
// A mask that names every process spares the one its next byte picks, so
// "all but one crashed" is reachable and no pattern is invalid.
func fuzzPatterns(n int, data []byte) []map[procset.ID]int {
	in := byteReader(data)
	patterns := make([]map[procset.ID]int, 1+in.next()%8)
	for i := range patterns {
		mask := uint64(in.next()) & (1<<n - 1)
		if mask == 1<<n-1 {
			mask &^= 1 << (in.next() % n)
		}
		if mask == 0 {
			continue
		}
		patterns[i] = map[procset.ID]int{}
		for ; mask != 0; mask &= mask - 1 {
			patterns[i][procset.ID(bits.TrailingZeros64(mask)+1)] = 3 * in.next()
		}
	}
	return patterns
}

// FuzzSharedStream pins fuzzSpace, which both fuzz campaign paths share,
// to the reference schedule: every run index's schedule must equal
// Take(Random(n, seed, pattern), steps) for its seed and crash pattern,
// and that must equal a Next loop, so a fault in the rejection kernel the
// two share cannot hide.
// Generated are n in 1..8, the base seed, steps in 1..600, 1–4 seeds and
// 1–8 crash patterns (budget 0, several crashed processes, all but one
// crashed), and up to 64 run indices in a generated order, repeats and
// out-of-order indices included, so a rig's per-seed draw cache is hit,
// missed and extended. The top bit of an order byte sends the run to a
// second rig of the same space, so two rigs share the compiled patterns.
func FuzzSharedStream(f *testing.F) {
	nightly := []byte{7, 1, 20, 2, 45, 4, 3, 8, 90, 1, 0, 2, 149, 4, 60}
	f.Add(uint8(3), int64(1), uint16(299), uint8(0), nightly, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(4), int64(-7), uint16(599), uint8(2), []byte{3, 0, 31, 0, 9, 5, 10, 200, 6, 0, 0},
		[]byte{3, 1, 3, 0, 2, 13, 5, 0x80 | 5, 2, 7, 0x80 | 1, 11, 11, 6})
	f.Add(uint8(7), int64(42), uint16(599), uint8(1), []byte{2, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0xfe, 1, 1, 1, 1, 1, 1, 1},
		[]byte{1, 2, 0, 1, 2, 0, 0x80, 0x81, 5, 4, 3})
	f.Add(uint8(0), int64(9), uint16(0), uint8(0), []byte{1, 1, 0}, []byte{1, 0, 1, 0})
	f.Add(uint8(2), int64(5), uint16(40), uint8(3), []byte{4, 6, 2, 0, 1, 7, 0, 5, 9, 0, 0},
		[]byte{19, 0, 18, 1, 17, 2, 0x80 | 19, 3, 16, 4})
	f.Fuzz(func(t *testing.T, nb uint8, base int64, stepsRaw uint16, seedsRaw uint8, patternBytes, order []byte) {
		n, steps, seeds := int(nb)%8+1, int(stepsRaw)%600+1, int(seedsRaw)%4+1
		patterns := fuzzPatterns(n, patternBytes)
		total, schedules, err := fuzzSpace(n, steps, seeds, base, patterns)
		if err != nil {
			t.Fatalf("n=%d patterns %v: %v", n, patterns, err)
		}
		if len(order) > 64 {
			order = order[:64]
		}
		rigs := [2]func(int) sched.Schedule{schedules(), schedules()}
		for i, c := range order {
			r := int(c&0x7f) % total
			got := rigs[c>>7](r)
			seed, pattern := base+int64(r/len(patterns)), patterns[r%len(patterns)]
			src, err := sched.Random(n, seed, pattern)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := sched.Random(n, seed, pattern)
			want := sched.Take(src, steps)
			for j := range want {
				if p := ref.Next(); want[j] != p {
					t.Fatalf("n=%d seed %d pattern %v: Take step %d is %v, Next %v", n, seed, pattern, j, want[j], p)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d steps=%d order[%d] = run %d (rig %d, seed %d, pattern %v):\n got %v\nwant %v",
					n, steps, i, r, c>>7, seed, pattern, got, want)
			}
		}
	})
}
