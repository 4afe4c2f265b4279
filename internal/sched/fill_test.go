package sched

import (
	"fmt"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// fuzzCrashes decodes up to two (process, budget) entries from data, two
// bytes each. Budgets stay below 32, so crashed processes are drawn within
// a short schedule, and 0 (never steps) is among them.
func fuzzCrashes(n int, data []byte) map[procset.ID]int {
	var m map[procset.ID]int
	for i := 0; i+1 < len(data) && i < 4; i += 2 {
		if m == nil {
			m = map[procset.ID]int{}
		}
		m[procset.ID(int(data[i])%n+1)] = int(data[i+1]) % 32
	}
	return m
}

// FuzzRandomFill pins the random source's fast forms to its reference: a
// source driven by NextBlock and Next in generated chunks, and reseeded to
// a second crash pattern halfway through, must emit exactly what a Next
// loop on a fresh Random emits, before and after the reseed. Each splits
// byte is one chunk: its low six bits are the length, bit 6 picks Next over
// NextBlock. Its seed corpus is in testdata/fuzz/FuzzRandomFill.
func FuzzRandomFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, seed int64, crashes []byte, splits []byte, reseed int64, recrashes []byte) {
		size := int(n)%8 + 1
		first, second := fuzzCrashes(size, crashes), fuzzCrashes(size, recrashes)
		src, err := Random(size, seed, first)
		if err != nil {
			return // every process crashes: no schedule to compare
		}
		ref, _ := Random(size, seed, first)
		step := 0
		for i, c := range splits {
			if i == len(splits)/2 {
				err := src.Reseed(reseed, second)
				fresh, ferr := Random(size, reseed, second)
				if (err == nil) != (ferr == nil) {
					t.Fatalf("Reseed error %v, Random error %v", err, ferr)
				}
				// A refused reseed leaves the source on its old stream.
				if err == nil {
					ref = fresh
				}
				if src.Correct() != ref.Correct() {
					t.Fatalf("after reseed Correct = %v, reference %v", src.Correct(), ref.Correct())
				}
			}
			got := make(Schedule, c&0x3f)
			if c&0x40 != 0 {
				for j := range got {
					got[j] = src.Next()
				}
			} else {
				src.NextBlock(got)
			}
			for _, p := range got {
				if want := ref.Next(); p != want {
					t.Fatalf("n=%d step %d (chunk %d): got %v, reference %v", size, step, i, p, want)
				}
				step++
			}
		}
	})
}

// BenchmarkRandomFill times the schedule fill of one 300-step run: reseed
// one source and fill one buffer, per crash pattern. ns/op is per run.
func BenchmarkRandomFill(b *testing.B) {
	for _, bc := range []struct {
		name    string
		n       int
		crashes map[procset.ID]int
	}{
		{"n4", 4, nil},
		{"n4-crash", 4, map[procset.ID]int{2: 60}},
		{"n5", 5, nil},
		{"n5-crash", 5, map[procset.ID]int{2: 60}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src, err := Random(bc.n, 1, bc.crashes)
			if err != nil {
				b.Fatal(err)
			}
			buf := make(Schedule, 300)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := src.Reseed(int64(i), bc.crashes); err != nil {
					b.Fatal(err)
				}
				src.NextBlock(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/step")
		})
	}
	// Per-seed cases, one 300-step run per op: "reseed" reseeds one source
	// per run, "stream" fills every pattern of a seed from one SeedStream.
	// seed8 is the nightly fuzz shape, each seed failure-free and under
	// seven one-crash patterns; seed1 and seed1-crash have one pattern per
	// seed (the CLI default, and -crashes p1@3), so no seed is reused.
	for _, n := range []int{4, 5} {
		seed8 := []map[procset.ID]int{nil}
		for j := 0; j < 7; j++ {
			seed8 = append(seed8, map[procset.ID]int{procset.ID(1 + j%n): 20 * j})
		}
		for _, shape := range []struct {
			name     string
			patterns []map[procset.ID]int
		}{
			{"seed8", seed8},
			{"seed1", []map[procset.ID]int{nil}},
			{"seed1-crash", []map[procset.ID]int{{1: 3}}},
		} {
			patterns := shape.patterns
			budgets := make([]Budgets, len(patterns))
			for j, p := range patterns {
				budgets[j], _ = CompileBudgets(n, p)
			}
			buf := make(Schedule, 300)
			b.Run(fmt.Sprintf("%s/reseed/n%d", shape.name, n), func(b *testing.B) {
				src, _ := Random(n, 1, nil)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := src.Reseed(int64(i/len(patterns)), patterns[i%len(patterns)]); err != nil {
						b.Fatal(err)
					}
					src.NextBlock(buf)
				}
			})
			b.Run(fmt.Sprintf("%s/stream/n%d", shape.name, n), func(b *testing.B) {
				stream, _ := NewSeedStream(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stream.Fill(buf, int64(i/len(budgets)), budgets[i%len(budgets)])
				}
			})
		}
	}
}
