// Runner-scoped machine layouts: the immutable construction products of
// machine factories, built once per runner and shared across Reset.
//
// Runner.Reset re-runs every machine factory, and the factories remain the
// only source of a machine's initial state. Much of what a factory builds,
// though, never changes over the runner's life: the register names it
// formats, the refs it interns, the op tables it prebuilds, the subset
// enumerations it walks. Rebuilding those on every Reset was most of a
// pooled reset's cost. Layout keeps them in the same runner-scoped keyed
// store that holds the recyclers, so a factory costs a cache lookup plus
// its mutable fields.

package sim

// Layout returns the layout stored under key in the runner behind regs,
// building it with build on first use. A layout is a machine's immutable
// construction product — interned register refs, prebuilt op tables, name
// strings, subset enumerations — shared read-only by every machine of the
// runner that asks for the same key and kept for the runner's lifetime,
// including across Reset (the registers it interned survive Reset too). A
// layout must hold no state a run carries forward; a memo that grows lazily
// (round layouts built as rounds are first reached) is allowed as long as
// an entry never changes once built, and so is a per-process scratch
// buffer that is always overwritten before it is read (a CollectOp's dst).
//
// Unlike Recycler the cache is not gated: it serves observed and
// recycle-free runners alike, since nothing in a layout is a written value.
// Key types should be unexported and package-local, so packages cannot
// collide; two runners never share a layout. When regs is not a runner's
// registry (a machine built outside a Runner, or a coroutine Env), build
// runs on every call.
//
// Machine factories and the stepping goroutine only, like Recycler.
func Layout[K comparable, T any](regs Registry, key K, build func() T) T {
	m, ok := regs.(*memory)
	if !ok {
		return build()
	}
	if v, ok := m.cache[key]; ok {
		return v.(T)
	}
	v := build()
	m.store(key, v)
	return v
}
