package consensus

import (
	"strings"

	"github.com/settimeliness/settimeliness/internal/sim"
)

// This file exposes read-only instrumentation over the register traffic of
// consensus instances. The adaptive adversaries used by the impossibility
// experiments (internal/adversary) watch the simulator's StepInfo stream and
// need to recognize ballot-block writes and decision writes without access
// to the instances' private state.

// RegisterKind classifies a consensus register by name.
type RegisterKind int

// Register kinds.
const (
	RegisterUnknown  RegisterKind = iota
	RegisterBallot                // a per-process X register
	RegisterDecision              // the instance's decision register D
)

// ParseRegister reports whether the register name belongs to a consensus
// instance, and if so which instance and which kind of register it is.
// Instance names may themselves contain brackets (e.g. "kset[0]"), so the
// instance is delimited by the last "]." separator, not the first "]".
func ParseRegister(name string) (instance string, kind RegisterKind) {
	const prefix = "consensus["
	if !strings.HasPrefix(name, prefix) {
		return "", RegisterUnknown
	}
	rest := name[len(prefix):]
	switch {
	case strings.HasSuffix(rest, "].D"):
		return rest[:len(rest)-len("].D")], RegisterDecision
	default:
		if idx := strings.LastIndex(rest, "].X["); idx >= 0 && strings.HasSuffix(rest, "]") {
			return rest[:idx], RegisterBallot
		}
		return "", RegisterUnknown
	}
}

// TableEntry is the interned metadata of one register slot: which consensus
// instance it belongs to (a dense id assigned in first-seen order; -1 for
// registers that are not consensus registers) and which kind of register it
// is.
type TableEntry struct {
	Instance int
	Kind     RegisterKind
}

// Table resolves a runner's interned register slots (sim.RegID) to consensus
// metadata: ParseRegister runs once per slot, at first sight, and every
// later lookup is a dense-slice load. Directed-run observers (the parking
// adversary) use it to classify write steps without per-step string parsing.
//
// A Table is bound to one runner's interning order (ids are stable across
// Runner.Reset, so a pooled runner keeps its table). It is not safe for
// concurrent use.
type Table struct {
	name      func(sim.RegID) string
	meta      []TableEntry
	instances map[string]int
}

// NewTable builds an empty table over the given slot-name resolver
// (typically Runner.RegName). The resolver may be nil until a Rebind, as
// long as no slot is looked up before it.
func NewTable(name func(sim.RegID) string) *Table {
	return &Table{name: name, instances: make(map[string]int)}
}

// Rebind points the table at a different runner's slot namespace: the
// per-slot metadata cache is discarded (slot ids are runner-specific), the
// instance numbering survives (names are global).
func (t *Table) Rebind(name func(sim.RegID) string) {
	t.name = name
	t.meta = t.meta[:0]
}

// Entry returns the metadata of the given slot, interning it on first sight.
func (t *Table) Entry(id sim.RegID) TableEntry {
	if int(id) < len(t.meta) {
		return t.meta[id]
	}
	return t.extend(id)
}

// extend grows the table through slot id. Slots are interned in ascending
// order of first sight, so the loop typically adds a single entry.
func (t *Table) extend(id sim.RegID) TableEntry {
	if t.name == nil {
		panic("consensus: Table has no slot-name resolver; Rebind it to a runner before slot lookups")
	}
	for next := sim.RegID(len(t.meta)); next <= id; next++ {
		instance, kind := ParseRegister(t.name(next))
		e := TableEntry{Instance: -1, Kind: kind}
		if kind != RegisterUnknown {
			idx, ok := t.instances[instance]
			if !ok {
				idx = len(t.instances)
				t.instances[instance] = idx
			}
			e.Instance = idx
		}
		t.meta = append(t.meta, e)
	}
	return t.meta[id]
}

// BlockInfo extracts the ballot numbers from a value written to an X
// register. phase2 reports whether the write opens phase 2 of its ballot
// (Bal caught up with MBal), which is the last step after which the writer
// could still reach the decision write of that ballot.
func BlockInfo(v any) (mbal, bal int, phase2, ok bool) {
	b, isBlock := v.(xblock)
	if !isBlock {
		return 0, 0, false, false
	}
	return b.MBal, b.Bal, b.Bal == b.MBal && b.MBal > 0, true
}
