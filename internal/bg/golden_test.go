package bg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/sched"
)

// goldenDigest hashes what the frozen fixture pins about one observed
// simulation run: every step's process, kind and register, then the thread
// decisions, the simulator adoptions and the simulated schedule.
func goldenDigest(snap bgSnapshot) string {
	h := sha256.New()
	for _, info := range snap.trace {
		fmt.Fprintf(h, "%d %v %s\n", info.Proc, info.Kind, info.Reg)
	}
	for i, d := range snap.decisions {
		fmt.Fprintf(h, "decision %d %v\n", i+1, d)
	}
	for p, a := range snap.adopted {
		fmt.Fprintf(h, "adopted %d %v\n", p+1, a)
	}
	fmt.Fprintf(h, "schedule %s\n", snap.schedule)
	return hex.EncodeToString(h.Sum(nil))
}

// readGolden loads a fixture of "name digest" lines; lines starting with #
// are comments.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			want[f[0]] = f[1]
		}
	}
	return want
}

// TestSimulationMachineMatchesGolden pins the fused machine against digests
// frozen from the chained sub-automaton port (propose feeding update feeding
// scan), the former middle reference between the coroutine Algorithm and
// the fused Machine: each case's per-step Proc/Kind/Reg stream and harness
// state must hash to the recorded value.
func TestSimulationMachineMatchesGolden(t *testing.T) {
	t.Parallel()
	want := readGolden(t, "testdata/chained_digests.txt")
	for _, tc := range simCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := sched.Random(tc.m, tc.seed, tc.crashes)
			if err != nil {
				t.Fatal(err)
			}
			s := sched.Take(src, tc.steps)
			got := goldenDigest(snapshotSimulation(t, tc.m, tc.threads, s, formFused))
			if w, ok := want[tc.name]; !ok {
				t.Fatalf("no golden digest for %s", tc.name)
			} else if got != w {
				t.Errorf("fused machine digest %s, golden %s", got, w)
			}
		})
	}
}
