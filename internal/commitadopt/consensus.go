package commitadopt

import (
	"github.com/settimeliness/settimeliness/internal/sim"
)

// Consensus is single-shot consensus built from a chain of commit-adopt
// objects, one per round. Safety never depends on who attempts: if any
// process commits u in round r, the object forces every round-r participant
// to carry u into round r+1, so all commits — in any rounds — agree.
// Liveness holds once a single correct process attempts unobstructed, as
// for the Disk-Paxos engine in internal/consensus, whose API
// (CheckDecision, Attempt) this mirrors. ConsensusMachine is its
// direct-dispatch form.
type Consensus struct {
	env  sim.Env
	name string
	dec  sim.Ref

	round   int
	est     any
	decided any
	hasDec  bool
}

// NewConsensus creates the per-process handle for the named instance.
// It performs no steps.
func NewConsensus(env sim.Env, name string) *Consensus {
	return &Consensus{
		env:  env,
		name: name,
		dec:  env.Reg(regNameDec(name)),
	}
}

// CheckDecision reads the decision register (one step).
func (c *Consensus) CheckDecision() (any, bool) {
	if c.hasDec {
		return c.decided, true
	}
	if v := c.env.Read(c.dec); v != nil {
		c.decided, c.hasDec = v, true
	}
	return c.decided, c.hasDec
}

// Attempt advances the chain by one round with proposal v (first call fixes
// the local estimate). It returns the decision and true once a round
// commits. Cost per call: 1 + 2 + 2·n steps.
func (c *Consensus) Attempt(v any) (any, bool) {
	if v == nil {
		panic("commitadopt: nil proposals are not supported")
	}
	if d, ok := c.CheckDecision(); ok {
		return d, true
	}
	if c.est == nil {
		c.est = v
	}
	c.round++
	ca := New(c.env, roundName(c.name, c.round))
	commit, u := ca.Propose(c.est)
	c.est = u
	if !commit {
		return nil, false
	}
	c.env.Write(c.dec, u)
	c.decided, c.hasDec = u, true
	return u, true
}
