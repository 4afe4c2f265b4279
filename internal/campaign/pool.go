package campaign

import "sync"

// Pool recycles expensive per-job state across the jobs of a campaign —
// typically a sim.Runner (whose Reset replays construction for free) plus
// its harness wiring. Workers Get an entry at the start of a job and Put it
// back when done; entries are created on demand, so a campaign allocates at
// most one entry per concurrently running worker rather than one per job.
//
// Determinism note: which pool entry serves which job varies run to run,
// so pooling is only sound when a recycled entry is observably identical to
// a fresh one. sim.Runner.Reset guarantees exactly that for runners; entry
// builders must guarantee it for whatever harness state they attach (the
// equivalence tests of the algorithm packages and the mode-determinism
// tests of internal/explore pin it end to end).
type Pool[E any] struct {
	mu    sync.Mutex
	free  []E
	build func() (E, error)
}

// NewPool returns a pool whose entries are created by build.
func NewPool[E any](build func() (E, error)) *Pool[E] {
	return &Pool[E]{build: build}
}

// Get returns a free entry, building a fresh one when none is available.
func (p *Pool[E]) Get() (E, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return e, nil
	}
	p.mu.Unlock()
	return p.build()
}

// Put returns an entry to the pool for reuse.
func (p *Pool[E]) Put(e E) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, e)
}

// Drain releases every pooled entry through the given function (e.g. to
// Close runners) and empties the pool. Entries still checked out are the
// caller's responsibility; call Drain only after all workers returned
// theirs.
func (p *Pool[E]) Drain(release func(E)) {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, e := range free {
		release(e)
	}
}
