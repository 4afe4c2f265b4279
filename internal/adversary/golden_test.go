package adversary

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// advDigest hashes everything the frozen fixture pins about one adversarial
// run: the recorded schedule, the step count, whether the stop predicate
// fired, the decided set and the parked count at the end.
func advDigest(o advOutcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nsteps %d stopped %v decided %v parked %d\n", o.schedule, o.steps, o.stopped, o.decided, o.parked)
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

// TestDirectedMatchesGolden pins DriveDirected against digests frozen from
// the legacy per-step driver (Step, then a name-parsing classification of
// each StepInfo), which made the same scheduling decisions through an
// independent code path: each case's run on the machine runner must hash to
// the recorded value.
func TestDirectedMatchesGolden(t *testing.T) {
	t.Parallel()
	want := readGolden(t, "testdata/drive_digests.txt")
	for _, tc := range directedCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := advDigest(driveOutcome(t, tc.cfg, tc.crashed, directedBudget, true, 0))
			if w, ok := want[tc.name]; !ok {
				t.Fatalf("no golden digest for %s", tc.name)
			} else if got != w {
				t.Errorf("directed run digest %s, golden %s", got, w)
			}
		})
	}
}
