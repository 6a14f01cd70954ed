package memory

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Pool is a type-stable arena of records addressed by Handle, with
// per-pid free lists and a shared overflow. It is the allocation
// backend of the tagged register family: the hot paths of the pooled
// stacks and queues Get and Put nodes here instead of allocating per
// operation, so their steady state runs at zero allocations per
// operation (experiment E17).
//
// Memory handed out by Get is never returned to the Go heap — blocks
// live for the pool's lifetime — which is precisely what makes
// dereferencing a stale handle memory-safe: a recycled record may hold
// another operation's data, never unmapped memory. Detecting that the
// data is another operation's is the tagged registers' job (§2.2).
//
// Discipline:
//
//   - Get(pid)/Put(pid) may be called concurrently by different pids;
//     a given pid's calls must be serial (the paper's model of n known
//     processes, as in internal/combine's publication slots).
//   - Put only handles that no register can install again (the old
//     word of a successful CAS, or a freshly Got handle that was never
//     published). Records are NOT zeroed on reuse — per-node state
//     such as an accumulated next-tag must survive recycling (see
//     queue.MichaelScott).
//   - A record field that a stale reader may load (one whose CAS is
//     about to fail, racing the recycler) must be atomic. A payload
//     touched only by the record's owner — written before the CAS that
//     publishes the record, read after the CAS that unlinks it — may
//     be any T (stack.Treiber and queue.MichaelScott keep values so);
//     the owner clears it before Put, so the pool keeps nothing
//     reachable.
//
// The recycling counters are exact at quiescence (Stats); ArenaSize is
// the one read of them that is safe under load.
type Pool[T any] struct {
	blocks atomic.Pointer[[]*poolBlock[T]]
	init   func(*T)

	mu       sync.Mutex // guards next, arena growth, overflow
	next     uint64
	overflow []Handle

	localCap int
	limit    uint64 // test-only shrunken handle horizon (0 = 2^31-1)
	locals   []poolLocal
}

const (
	poolBlockBits = 8
	poolBlockSize = 1 << poolBlockBits

	// poolLocalCap bounds each pid's private free list; beyond it, the
	// older half spills to the shared overflow.
	poolLocalCap = 64
)

type poolBlock[T any] [poolBlockSize]T

// poolLocal is one pid's free list and path counters, and only that
// pid writes them. reuses, bumped on every Get a free list serves, is a
// plain word read at quiescence: an owner's uncontended atomic add
// costs four times a plain increment. allocs, spills and refills, bumped
// only on the paths that take the pool's mutex, stay atomic. The padding
// keeps neighbouring pids off one line.
type poolLocal struct {
	free    []Handle
	reuses  uint64
	allocs  atomic.Uint64
	spills  atomic.Uint64
	refills atomic.Uint64
	_       [64]byte
}

// PoolStats is a snapshot of a pool's allocation and recycling
// counters.
type PoolStats struct {
	// Allocs counts records carved fresh from the arena (a growing
	// arena in steady state means recycling is not keeping up).
	Allocs uint64
	// Reuses counts Gets served from a free list (local or refilled).
	Reuses uint64
	// Spills counts local-cache overflows into the shared list.
	Spills uint64
	// Refills counts local-cache refills from the shared list.
	Refills uint64
	// Drops counts freed handles the pool abandoned. The shared
	// overflow grows to hold every freed handle, so it is always 0;
	// the pooled structures' tests and E17 pin that.
	Drops uint64
}

// NewPool returns a pool for procs pids (pids in [0, procs)). init, if
// non-nil, runs once on every record freshly carved from the arena —
// recycled records are handed back as-is.
func NewPool[T any](procs int, init func(*T)) *Pool[T] {
	if procs < 1 {
		panic("memory: pool process count must be >= 1")
	}
	p := &Pool[T]{
		init:     init,
		next:     1, // handle 0 is NilHandle
		localCap: poolLocalCap,
		locals:   make([]poolLocal, procs),
	}
	blocks := []*poolBlock[T]{new(poolBlock[T])}
	p.blocks.Store(&blocks)
	return p
}

// At resolves a handle to its record. h must have been returned by Get
// of this pool; At is lock-free and safe concurrently with Get/Put.
func (p *Pool[T]) At(h Handle) *T {
	bs := *p.blocks.Load()
	return &bs[h>>poolBlockBits][h&(poolBlockSize-1)]
}

// ErrArenaExhausted is TryGet's typed failure: the arena has handed
// out every addressable handle. See the TagBits comment in TryGet for
// why the limit is 2^31-1 records.
var ErrArenaExhausted = errors.New("memory: pool arena exhausted (2^31-1 records)")

// Get returns a free record's handle, preferring pid's local free list
// (LIFO: the hottest record first), then a batch refill from the
// shared overflow, then a fresh arena record. Get panics on arena
// exhaustion; callers that can shed load instead should use TryGet.
func (p *Pool[T]) Get(pid int) Handle {
	h, err := p.TryGet(pid)
	if err != nil {
		panic(err.Error())
	}
	return h
}

// TryGet is Get with a graceful failure path: when the arena is
// exhausted it returns ErrArenaExhausted instead of panicking, so a
// bounded-retry caller can surface the condition as a typed error
// (core.ErrExhausted-style degradation) rather than crash the process.
func (p *Pool[T]) TryGet(pid int) (Handle, error) {
	l := &p.locals[pid]
	if n := len(l.free); n > 0 {
		h := l.free[n-1]
		l.free = l.free[:n-1]
		l.reuses++
		return h, nil
	}
	p.mu.Lock()
	if n := len(p.overflow); n > 0 {
		take := p.localCap / 2
		if take > n {
			take = n
		}
		l.free = append(l.free, p.overflow[n-take:]...)
		p.overflow = p.overflow[:n-take]
		p.mu.Unlock()
		l.refills.Add(1)
		l.reuses++
		h := l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		return h, nil
	}
	h := Handle(p.next)
	// The handle field of a TaggedVal reserves its top bit for the
	// TaggedMark deletion flag, so the last valid handle is 2^31-1 —
	// enforced here, where every handle is born, rather than letting a
	// larger handle silently alias the mark. Tests shrink the horizon
	// via limit to make exhaustion reachable.
	limit := uint64(1)<<(TagBits-1) - 1
	if p.limit != 0 {
		limit = p.limit
	}
	if uint64(h) > limit {
		p.mu.Unlock()
		return NilHandle, ErrArenaExhausted
	}
	if p.next>>poolBlockBits >= uint64(len(*p.blocks.Load())) {
		grown := append(append([]*poolBlock[T]{}, *p.blocks.Load()...), new(poolBlock[T]))
		p.blocks.Store(&grown)
	}
	p.next++
	p.mu.Unlock()
	l.allocs.Add(1)
	rec := p.At(h)
	if p.init != nil {
		p.init(rec)
	}
	return h, nil
}

// Put recycles h onto pid's free list, spilling the older half to the
// shared overflow when the local list is full. The overflow grows to
// hold every freed handle: dropping one would never give memory back
// (blocks live for the pool's lifetime), only strand a record and make
// a later Get carve a fresh one.
func (p *Pool[T]) Put(pid int, h Handle) {
	l := &p.locals[pid]
	l.free = append(l.free, h)
	if len(l.free) <= p.localCap {
		return
	}
	half := p.localCap / 2
	p.mu.Lock()
	p.overflow = append(p.overflow, l.free[:half]...)
	p.mu.Unlock()
	l.free = append(l.free[:0], l.free[half:]...)
	l.spills.Add(1)
}

// MaxArena bounds the records a pool for procs pids ever carves when
// at most live handles are outside its free lists at any time. A Get
// carves a fresh record only when its pid's local list and the shared
// overflow are both empty, so every other record is live or waits in
// another pid's local list, which holds at most poolLocalCap handles.
func MaxArena(live, procs int) int { return live + procs*poolLocalCap }

// Stats returns the pool's counters summed over every pid, at
// quiescence only: it reads the owner-written Reuses words plainly, so
// it must not run concurrently with a Get. Under load, read ArenaSize,
// which equals Allocs.
func (p *Pool[T]) Stats() PoolStats {
	var st PoolStats
	for i := range p.locals {
		l := &p.locals[i]
		st.Allocs += l.allocs.Load()
		st.Reuses += l.reuses
		st.Spills += l.spills.Load()
		st.Refills += l.refills.Load()
	}
	return st
}

// ArenaSize returns the number of records ever carved from the arena
// (live + free), a measure of the pool's high-water footprint. It takes
// the pool's mutex, so it is safe under load; at quiescence it equals
// Stats().Allocs.
func (p *Pool[T]) ArenaSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.next - 1)
}
