// Package commitadopt implements Gafni's commit-adopt objects from
// read/write registers, and a consensus engine built from a chain of them
// steered by a leader oracle.
//
// A commit-adopt object is a one-shot, wait-free object with a single
// operation Propose(v) returning (commit, u) such that:
//
//   - validity: u was proposed by some process;
//   - convergence: if every proposer proposes v, every result is
//     (commit, v);
//   - agreement: if any process commits u, then every result carries u
//     (committed or adopted).
//
// Chained over rounds and fed by an eventual leader, commit-adopt yields
// consensus whose safety never depends on the oracle: the chain is the
// alternative to the Disk-Paxos-style engine in internal/consensus, run by
// the explorer's cachain target (the kset agreement layer uses the Paxos
// engine).
package commitadopt

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/sim"
)

// Object is one process's handle on a named commit-adopt object.
// Propose must be called at most once per process.
type Object struct {
	env      sim.Env
	n        int
	a, b     []sim.Ref
	proposed bool
}

type phase2Val struct {
	Val       any
	CommitTry bool
}

// New creates the handle for the named object. It performs no steps.
func New(env sim.Env, name string) *Object {
	n := env.N()
	o := &Object{env: env, n: n, a: make([]sim.Ref, n+1), b: make([]sim.Ref, n+1)}
	for q := 1; q <= n; q++ {
		o.a[q] = env.Reg(regNameA(name, q))
		o.b[q] = env.Reg(regNameB(name, q))
	}
	return o
}

// Propose runs the two collect phases and returns (commit, value).
// Cost: 2 writes + 2·n reads.
func (o *Object) Propose(v any) (bool, any) {
	if v == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	if o.proposed {
		panic("commitadopt: Propose called twice")
	}
	o.proposed = true
	self := int(o.env.Self())

	// Phase 1: publish the proposal, collect, check unanimity. The collect
	// includes our own entry, so a unanimous collect is unanimous on v.
	o.env.Write(o.a[self], v)
	unanimous := true
	for q := 1; q <= o.n; q++ {
		if got := o.env.Read(o.a[q]); got != nil && got != v {
			unanimous = false
		}
	}

	// Phase 2: publish the candidate with its tag, collect, resolve.
	// Two commit-try entries always carry the same value (their phase-1
	// collects would otherwise have seen each other), so: commit when only
	// commit-try entries are visible; adopt a commit-try value if any is
	// visible (a committer may exist); otherwise keep our own proposal.
	o.env.Write(o.b[self], phase2Val{Val: v, CommitTry: unanimous})
	var (
		commitVal any
		sawOther  bool
	)
	for q := 1; q <= o.n; q++ {
		got := o.env.Read(o.b[q])
		if got == nil {
			continue
		}
		p2, ok := got.(phase2Val)
		if !ok {
			panic(fmt.Sprintf("commitadopt: register holds %T", got))
		}
		if p2.CommitTry {
			commitVal = p2.Val
		} else {
			sawOther = true
		}
	}
	switch {
	case commitVal != nil && !sawOther:
		return true, commitVal
	case commitVal != nil:
		return false, commitVal
	default:
		return false, v
	}
}
