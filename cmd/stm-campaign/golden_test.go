package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenCases pin every subcommand's stdout, in text and -json mode, at
// seed 7 and -workers 2 (monitor takes no -workers). The files under
// testdata/golden were frozen from the built binary; only wall-clock
// figures are masked.
var goldenCases = []struct{ name, args string }{
	{"matrix", "matrix -t 1 -k 1 -n 3 -workers 2"},
	{"matrix-sweep", "matrix -t 1:2 -k 1:2 -n 3 -negbudget 20000 -workers 2"},
	{"fuzz", "fuzz -target consensus -n 3 -steps 60 -schedules 30 -crashes p1@3 -workers 2"},
	{"exhaustive", "exhaustive -target commitadopt -n 2 -depth 8 -workers 2"},
	{"exhaustive-full", "exhaustive -target commitadopt -n 2 -depth 8 -reduce=false -workers 2"},
	{"converge", "converge -n 3 -k 1 -t 1 -trials 3 -workers 2"},
	{"relations", "relations -n 3 -steps 200 -schedules 8 -workers 2"},
	{"adversarial", "adversarial -n 3 -runs 6 -steps 20000 -workers 2"},
	{"byzantine", "byzantine -target consensus -n 3 -runs 4 -steps 2000 -flight 8 -workers 2"},
	{"netconv", "netconv -n 3 -runs 4 -steps 2000 -workers 2"},
	{"monitor", "monitor -n 3 -steps 1500 -every 700 -window 128"},
}

var (
	maskElapsedNS = regexp.MustCompile(`"elapsed_ns":[0-9]+`)
	maskSeconds   = regexp.MustCompile(`, [0-9]+\.[0-9]{3}s\)`)
)

// maskWallClock blanks the only nondeterministic figures in the output.
func maskWallClock(out []byte) []byte {
	out = maskElapsedNS.ReplaceAll(out, []byte(`"elapsed_ns":0`))
	return maskSeconds.ReplaceAll(out, []byte(`, 0.000s)`))
}

func TestGolden(t *testing.T) {
	t.Parallel()
	for _, gc := range goldenCases {
		for _, mode := range []string{"txt", "json"} {
			t.Run(gc.name+"."+mode, func(t *testing.T) {
				t.Parallel()
				args := append(strings.Fields(gc.args), "-seed", "7")
				if mode == "json" {
					args = append(args, "-json")
				}
				var out bytes.Buffer
				if err := execute(context.Background(), args[0], args[1:], &out); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", "golden", gc.name+"."+mode))
				if err != nil {
					t.Fatal(err)
				}
				if got := maskWallClock(out.Bytes()); !bytes.Equal(got, want) {
					t.Errorf("%v: stdout differs from the golden file\ngot:\n%s\nwant:\n%s", args, got, want)
				}
			})
		}
	}
}
