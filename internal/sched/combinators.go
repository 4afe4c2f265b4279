package sched

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
)

// interleave alternates blocks from two sources over the same Πn.
type interleave struct {
	a, b           Source
	blockA, blockB int
	pos            int
}

// Interleave returns a source that emits blockA steps from a, then blockB
// steps from b, repeating. Both sources must be over the same n. The correct
// set is the union: each inner source is consulted infinitely often.
func Interleave(a, b Source, blockA, blockB int) (Source, error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("sched: Interleave over different n (%d vs %d)", a.N(), b.N())
	}
	if blockA < 1 || blockB < 1 {
		return nil, fmt.Errorf("sched: Interleave blocks must be ≥ 1")
	}
	return &interleave{a: a, b: b, blockA: blockA, blockB: blockB}, nil
}

func (iv *interleave) Next() procset.ID {
	cycle := iv.blockA + iv.blockB
	inA := iv.pos%cycle < iv.blockA
	iv.pos++
	if inA {
		return iv.a.Next()
	}
	return iv.b.Next()
}

func (iv *interleave) N() int               { return iv.a.N() }
func (iv *interleave) Correct() procset.Set { return iv.a.Correct().Union(iv.b.Correct()) }
