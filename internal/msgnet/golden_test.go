package msgnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sched"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// hbGoldenSteps is the length of every golden heartbeat run.
const hbGoldenSteps = 20_000

// hbCase is one frozen heartbeat run: a named matrix at Δ = 2 and
// GST = hbGoldenSteps/4, a random schedule, and an optional crash.
type hbCase struct {
	matrix  string
	n       int
	stamp   bool
	timeout int // HeartbeatConfig.Timeout; 0 is the default
	seed    int64
	crash   map[procset.ID]int
}

func (c hbCase) name() string {
	s := fmt.Sprintf("%s/n=%d/stamp=%v", c.matrix, c.n, c.stamp)
	if c.timeout != 0 {
		s += fmt.Sprintf("/timeout=%d", c.timeout)
	}
	for p, after := range c.crash {
		s += fmt.Sprintf("/crash=p%d@%d", p, after)
	}
	return s
}

// hbGoldenCases is every matrix × n ∈ {3, 4, 6} × Stamp, plus one run whose
// initial leader crashes. At the default timeouts the leader rarely moves,
// so each matrix × n also runs once with a timeout of a few steps, where
// suspicions and rehabilitations churn all run long.
func hbGoldenCases() []hbCase {
	var cases []hbCase
	for _, m := range MatrixNames() {
		for _, n := range []int{3, 4, 6} {
			for _, stamp := range []bool{false, true} {
				cases = append(cases, hbCase{matrix: m, n: n, stamp: stamp, seed: int64(len(cases) + 1)})
			}
			cases = append(cases, hbCase{matrix: m, n: n, timeout: 3, seed: int64(len(cases) + 1)})
		}
	}
	return append(cases, hbCase{matrix: MatrixPartialSync, n: 4, seed: 99, crash: map[procset.ID]int{1: 1500}})
}

// hbDigest runs c one Step at a time and hashes every process's Leader and
// Rounds after each step.
func hbDigest(t *testing.T, c hbCase) string {
	t.Helper()
	hb, err := NewHeartbeat(HeartbeatConfig{N: c.n, Stamp: c.stamp, Timeout: c.timeout})
	if err != nil {
		t.Fatal(err)
	}
	def, links, err := BuildMatrix(c.matrix, c.n, 2, hbGoldenSteps/4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: c.n, Default: def, Links: links, Seed: c.seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.Config{N: c.n, Network: net, Machine: hb.Machine})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src, err := sched.Random(c.n, c.seed, c.crash)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	buf := make([]byte, 0, 9*c.n)
	for i := 0; i < hbGoldenSteps; i++ {
		r.Step(src.Next())
		buf = buf[:0]
		for p := procset.ID(1); int(p) <= c.n; p++ {
			buf = append(buf, byte(hb.Leader(p)))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(hb.Rounds(p)))
		}
		h.Write(buf)
	}
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

// TestHeartbeatMatchesGolden pins the detector's suspicion and round
// behaviour against digests frozen from the per-peer silence counters it
// replaced (refHeartbeat in fuzz_test.go is that form).
func TestHeartbeatMatchesGolden(t *testing.T) {
	t.Parallel()
	want := readGolden(t, "testdata/heartbeat_digests.txt")
	for _, c := range hbGoldenCases() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			got := hbDigest(t, c)
			if w, ok := want[c.name()]; !ok {
				t.Fatalf("no golden digest for %s (got %s)", c.name(), got)
			} else if got != w {
				t.Errorf("heartbeat digest %s, golden %s", got, w)
			}
		})
	}
}
