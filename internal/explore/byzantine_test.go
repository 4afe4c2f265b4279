package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/settimeliness/settimeliness/internal/adversary"
	"github.com/settimeliness/settimeliness/internal/campaign"
)

// renderCells canonicalizes a matrix (including violation content) for
// bit-identical comparison across worker counts.
func renderCells(t *testing.T, cells []ByzCell) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&sb, "c%d b%d %s: safe=%d degraded=%d violated=%d class=%s",
			c.Crash, c.Byz, c.Strategy, c.Safe, c.Degraded, c.Violated, c.Class)
		if c.Violation != nil {
			data, err := json.Marshal(c.Violation)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(data)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestByzantineWorkerInvariance is the sweep-level half of satellite 3: the
// degradation matrix — verdict counts, classes, and the reported violation
// details — is bit-identical at workers 1 and 8. The grid includes the
// byz = 0 column, whose cells run the installed-but-inert mutator, so the
// invariance also covers the inert path end to end.
func TestByzantineWorkerInvariance(t *testing.T) {
	t.Parallel()
	run := func(workers int) string {
		ctx := campaign.WithOptions(context.Background(), campaign.Options{Flight: 64})
		cfg := ByzConfig{
			Target:   TargetConsensus,
			N:        3,
			CrashMax: 1,
			ByzMax:   1,
			Runs:     10,
			Steps:    20_000,
			Seed:     42,
			Workers:  workers,
		}
		rep, cells, err := ByzantineCampaign(ctx, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) > 0 {
			t.Fatalf("campaign reported %d failures; violated cells must stay green", len(rep.Failures))
		}
		return renderCells(t, cells)
	}
	one := run(1)
	eight := run(8)
	if one != eight {
		t.Errorf("matrix differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", one, eight)
	}
}

// TestByzantineMutantDetection pins the no-false-green property AND the
// safe-to-violated budget flip in one matrix: on the consensus workload at
// n = 3, the fault-free cell must classify safe while the byz = 1 flip cell
// must classify violated (a corrupted decision escaping into honest
// adoption), carrying its corrupting-write trace and flight tail.
func TestByzantineMutantDetection(t *testing.T) {
	t.Parallel()
	ctx := campaign.WithOptions(context.Background(), campaign.Options{Flight: 64})
	cfg := ByzConfig{
		Target:     TargetConsensus,
		N:          3,
		CrashMax:   0,
		ByzMax:     1,
		Strategies: []adversary.Strategy{adversary.StrategyFlip},
		Runs:       20,
		Steps:      20_000,
		Seed:       1,
		Workers:    2,
	}
	_, cells, err := ByzantineCampaign(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var base, flip *ByzCell
	for i := range cells {
		switch {
		case cells[i].Byz == 0:
			base = &cells[i]
		case cells[i].Strategy == "flip":
			flip = &cells[i]
		}
	}
	if base == nil || flip == nil {
		t.Fatalf("matrix missing expected cells: %+v", cells)
	}
	if base.Class != "safe" || base.Violated != 0 {
		t.Errorf("fault-free cell classified %q (violated=%d), want safe", base.Class, base.Violated)
	}
	if flip.Class != "violated" || flip.Violated == 0 {
		t.Fatalf("byz=1 flip cell classified %q (violated=%d); a known-unsafe budget was not flagged — false green",
			flip.Class, flip.Violated)
	}
	v := flip.Violation
	if v == nil {
		t.Fatal("violated cell carries no violation detail")
	}
	if !strings.Contains(v.Err.Error(), "non-proposal") {
		t.Errorf("violation error lacks the honest-side check message: %v", v.Err)
	}
	if !strings.Contains(v.Trace, "flip") || !strings.Contains(v.Trace, "->") {
		t.Errorf("violation lacks the corrupting-write trace:\n%s", v.Trace)
	}
	if v.Flight == "" || !strings.Contains(v.Flight, "[byzantine]") {
		t.Errorf("violation lacks a fault-annotated flight tail:\n%s", v.Flight)
	}
}

// TestByzantineViolationJSONRoundTrip: the new Trace field survives the
// checkpoint/worker wire format.
func TestByzantineViolationJSONRoundTrip(t *testing.T) {
	t.Parallel()
	v := &Violation{
		Err:    fmt.Errorf("boom"),
		Flight: "flight tail",
		Trace:  "corrupting writes (flip): 1 mutation(s)",
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back Violation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err.Error() != "boom" || back.Flight != v.Flight || back.Trace != v.Trace {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

// TestByzantineConfigErrors: malformed sweeps fail before any worker runs.
func TestByzantineConfigErrors(t *testing.T) {
	t.Parallel()
	bad := []ByzConfig{
		{Target: TargetConsensus, N: 1, Runs: 1, Steps: 1},
		{Target: TargetConsensus, N: 3, Runs: 0, Steps: 1},
		{Target: TargetConsensus, N: 3, Runs: 1, Steps: 0},
		{Target: "nope", N: 3, Runs: 1, Steps: 1},
		{Target: TargetConsensus, N: 3, Runs: 1, Steps: 1, CrashMax: -1},
	}
	for i, cfg := range bad {
		if _, _, err := ByzantineCampaign(context.Background(), cfg, nil); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

// byzGoldenTargets are the workloads TestByzantineMatchesGolden pins: the
// five named targets and the byzantine-only detector.
var byzGoldenTargets = []string{
	TargetCommitAdopt, TargetConsensus, TargetCAChain, TargetKSet, TargetBG, TargetAntiOmega,
}

// TestByzantineMatchesGolden pins the degradation matrix of every target at
// n = 3 and n = 4 against digests in testdata/byz_digests.txt: the SHA-256
// of renderCells, violation traces and flight tails included. The sweep is
// the CLI's "-crash 0:1 -byz 0:1" (0:2 at n = 4) with 6 runs of 3,000 steps
// per cell, flight depth 16 and seed 3; its population holds violated cells
// on consensus and kset and a degraded cell on kset.
func TestByzantineMatchesGolden(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile("testdata/byz_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			want[f[0]] = f[1]
		}
	}
	ctx := campaign.WithOptions(context.Background(), campaign.Options{Flight: 16})
	for _, target := range byzGoldenTargets {
		for _, n := range []int{3, 4} {
			name := fmt.Sprintf("%s/n=%d", target, n)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				_, cells, err := ByzantineCampaign(ctx, ByzConfig{
					Target: target, N: n, CrashMax: 1, ByzMax: n - 2,
					Runs: 6, Steps: 3000, Seed: 3, Workers: 2,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(renderCells(t, cells)))
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("matrix digest %s, golden %s; matrix:\n%s", got, want[name], renderCells(t, cells))
				}
			})
		}
	}
}
