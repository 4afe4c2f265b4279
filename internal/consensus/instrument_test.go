package consensus

import (
	"testing"

	"github.com/settimeliness/settimeliness/internal/sim"
)

func TestParseRegister(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name     string
		instance string
		kind     RegisterKind
	}{
		{"consensus[kset[0]].X[1]", "kset[0]", RegisterBallot},
		{"consensus[kset[12]].X[64]", "kset[12]", RegisterBallot},
		{"consensus[kset[0]].D", "kset[0]", RegisterDecision},
		{"consensus[plain].D", "plain", RegisterDecision},
		{"consensus[plain].X[3]", "plain", RegisterBallot},
		{"Heartbeat[3]", "", RegisterUnknown},
		{"consensus[broken", "", RegisterUnknown},
		{"consensus[x].Y[1]", "", RegisterUnknown},
		{"ca[obj].A[1]", "", RegisterUnknown},
	}
	for _, tc := range tests {
		instance, kind := ParseRegister(tc.name)
		if instance != tc.instance || kind != tc.kind {
			t.Errorf("ParseRegister(%q) = (%q, %v), want (%q, %v)",
				tc.name, instance, kind, tc.instance, tc.kind)
		}
	}
}

func TestTable(t *testing.T) {
	t.Parallel()
	names := []string{
		"consensus[kset[0]].X[1]", // slot 0
		"consensus[kset[0]].X[2]", // slot 1
		"consensus[kset[1]].X[1]", // slot 2
		"consensus[kset[0]].D",    // slot 3
		"Heartbeat[1]",            // slot 4
	}
	resolved := 0
	tb := NewTable(func(id sim.RegID) string {
		resolved++
		return names[id]
	})
	// Out-of-order first lookup extends through every earlier slot, so
	// instances are numbered in slot order: kset[0] is 0, kset[1] is 1.
	const kset0, kset1 = 0, 1
	if e := tb.Entry(2); e.Kind != RegisterBallot || e.Instance != kset1 {
		t.Errorf("slot 2 = %+v", e)
	}
	if e := tb.Entry(0); e.Kind != RegisterBallot || e.Instance != kset0 {
		t.Errorf("slot 0 = %+v", e)
	}
	if e := tb.Entry(3); e.Kind != RegisterDecision || e.Instance != kset0 {
		t.Errorf("slot 3 = %+v", e)
	}
	if e := tb.Entry(4); e.Kind != RegisterUnknown || e.Instance != -1 {
		t.Errorf("slot 4 = %+v", e)
	}
	if len(tb.instances) != 2 {
		t.Errorf("%d instances, want 2", len(tb.instances))
	}
	// Each slot's name is parsed exactly once.
	before := resolved
	for id := range names {
		tb.Entry(sim.RegID(id))
	}
	if resolved != before {
		t.Errorf("repeat lookups re-parsed names: %d resolutions after warm table", resolved-before)
	}
	if resolved != len(names) {
		t.Errorf("resolved %d names, want %d", resolved, len(names))
	}
	// Rebind discards the slot cache but keeps the instance numbering.
	tb.Rebind(func(id sim.RegID) string { return "consensus[kset[1]].X[1]" })
	if e := tb.Entry(0); e.Instance != kset1 {
		t.Errorf("instance id changed across Rebind: %d vs %d", e.Instance, kset1)
	}
}

func TestBlockInfo(t *testing.T) {
	t.Parallel()
	if _, _, _, ok := BlockInfo("not a block"); ok {
		t.Error("BlockInfo accepted a string")
	}
	mbal, bal, phase2, ok := BlockInfo(xblock{MBal: 7, Bal: 3, Inp: "v"})
	if !ok || mbal != 7 || bal != 3 || phase2 {
		t.Errorf("phase-1 block = (%d,%d,%v,%v)", mbal, bal, phase2, ok)
	}
	mbal, bal, phase2, ok = BlockInfo(xblock{MBal: 7, Bal: 7, Inp: "v"})
	if !ok || mbal != 7 || bal != 7 || !phase2 {
		t.Errorf("phase-2 block = (%d,%d,%v,%v)", mbal, bal, phase2, ok)
	}
	// The zero block is not a phase-2 write.
	if _, _, phase2, _ := BlockInfo(xblock{}); phase2 {
		t.Error("zero block classified as phase-2")
	}
}
