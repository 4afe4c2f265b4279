// Package consensus provides single-shot consensus for the read/write
// shared-memory model, in the style of Disk Paxos (Gafni & Lamport)
// specialized to a single "disk" of single-writer multi-reader registers.
//
// Safety (uniform agreement and validity) holds in every schedule, with any
// number of crashes. Liveness requires an eventual leader: if from some
// point on exactly one correct process keeps attempting ballots and every
// other process stops attempting, the attempts eventually succeed. The
// agreement layer in internal/kset supplies that leader from the winnerset
// of the Figure 2 failure detector.
//
// This is the substrate behind Theorem 24: k parallel instances of this
// object, steered by the k members of the stable winnerset, solve
// (t,k,n)-agreement.
package consensus

import (
	"fmt"

	"github.com/settimeliness/settimeliness/internal/procset"
	"github.com/settimeliness/settimeliness/internal/sim"
)

// xblock is the per-process ballot block, stored by value in the process's
// single-writer register. MBal is the highest ballot the process has
// started; Bal and Inp describe the highest ballot in which it completed
// phase 1 and the value it carried into phase 2.
type xblock struct {
	MBal int
	Bal  int
	Inp  any
}

// Instance is one process's handle on a named consensus object. Register
// names are scoped by the instance name, so any number of independent
// instances can coexist in one shared memory.
type Instance struct {
	env    sim.Env
	n      int
	self   procset.ID
	blocks []sim.Ref // blocks[q] is q's single-writer register (1-based)
	dec    sim.Ref   // multi-writer decision register

	block   xblock // the local copy of our own block
	decided any
	hasDec  bool
}

// NewInstance creates the per-process handle for the consensus object with
// the given name. It performs no steps.
func NewInstance(env sim.Env, name string) *Instance {
	n := env.N()
	in := &Instance{
		env:    env,
		n:      n,
		self:   env.Self(),
		blocks: make([]sim.Ref, n+1),
		dec:    env.Reg(regNameDec(name)),
	}
	for q := 1; q <= n; q++ {
		in.blocks[q] = env.Reg(regNameBlock(name, q))
	}
	return in
}

// Decided returns the locally known decision, if any. It performs no steps.
func (in *Instance) Decided() (any, bool) { return in.decided, in.hasDec }

// CheckDecision reads the decision register (one step) and returns the
// decision if one has been written.
func (in *Instance) CheckDecision() (any, bool) {
	if in.hasDec {
		return in.decided, true
	}
	if v := in.env.Read(in.dec); v != nil {
		in.decided, in.hasDec = v, true
	}
	return in.decided, in.hasDec
}

// readBlock fetches q's ballot block (one step); the zero block stands for
// "never written".
func (in *Instance) readBlock(q int) xblock {
	v := in.env.Read(in.blocks[q])
	if v == nil {
		return xblock{}
	}
	b, ok := v.(xblock)
	if !ok {
		panic(fmt.Sprintf("consensus: register holds %T, want xblock", v))
	}
	return b
}

// nextBallot returns the smallest ballot owned by this process that is
// strictly greater than both its own current ballot and the given floor.
// Ballot b is owned by process p iff b ≡ p (mod n), which makes ballots
// globally unique.
func (in *Instance) nextBallot(floor int) int {
	if floor < in.block.MBal {
		floor = in.block.MBal
	}
	b := floor + 1
	shift := (int(in.self) - b%in.n + in.n) % in.n
	return b + shift
}

// Attempt runs one full ballot with proposal v: check the decision register,
// run phase 1 (write own block, read all others, adopt the value of the
// highest completed ballot), then phase 2 (write, read all others, and
// decide if no higher ballot has intruded). It returns the decision and true
// on success; on interference it returns false and the caller may retry —
// typically only while it believes itself the leader.
//
// Cost per call: at most 2 + 2·(n−1) + 2 steps.
func (in *Instance) Attempt(v any) (any, bool) {
	if v == nil {
		panic("consensus: nil proposals are not supported")
	}
	if d, ok := in.CheckDecision(); ok {
		return d, true
	}

	// Phase 1.
	ballot := in.nextBallot(0)
	in.block.MBal = ballot
	if in.block.Inp == nil {
		in.block.Inp = v
	}
	in.env.Write(in.blocks[in.self], in.block)
	maxSeen := 0
	adopt := in.block
	for q := 1; q <= in.n; q++ {
		if q == int(in.self) {
			continue
		}
		b := in.readBlock(q)
		if b.MBal > maxSeen {
			maxSeen = b.MBal
		}
		if b.Bal > adopt.Bal {
			adopt = b
		}
	}
	if maxSeen > ballot {
		in.block.MBal = in.nextBallot(maxSeen)
		return nil, false
	}
	if adopt.Bal > 0 {
		in.block.Inp = adopt.Inp
	}

	// Phase 2.
	in.block.Bal = ballot
	in.env.Write(in.blocks[in.self], in.block)
	for q := 1; q <= in.n; q++ {
		if q == int(in.self) {
			continue
		}
		b := in.readBlock(q)
		if b.MBal > maxSeen {
			maxSeen = b.MBal
		}
	}
	if maxSeen > ballot {
		in.block.MBal = in.nextBallot(maxSeen)
		return nil, false
	}
	in.env.Write(in.dec, in.block.Inp)
	in.decided, in.hasDec = in.block.Inp, true
	return in.decided, true
}

// Solve is a convenience driver: the process proposes v and loops — polling
// the decision register, and attempting ballots whenever leader() (a free
// local query, typically backed by a failure detector) names this process —
// until a decision is reached. Between unsuccessful leader attempts it backs
// off by polling the decision register, which keeps the step cost of
// contention bounded.
func (in *Instance) Solve(v any, leader func() procset.ID) any {
	for {
		if d, ok := in.CheckDecision(); ok {
			return d
		}
		if leader() == in.self {
			if d, ok := in.Attempt(v); ok {
				return d
			}
		}
	}
}
