package stack

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memory"
)

// tNode is a Treiber link recycled through a memory.Pool. next is
// atomic because a stale popper (one whose head word is about to fail
// its CAS) may read it while a recycler rewrites the node; that read
// is discarded, but the access itself must be data-race-free. value
// is a plain T: only the node's owner touches it — the pusher before
// the head CAS publishes the node, the popper after its head CAS
// unlinks it.
type tNode[T any] struct {
	next  atomic.Uint64 // Handle of the node below (no tag needed: see TryPop)
	value T
}

// Treiber is the classic unbounded lock-free linked stack (Treiber
// 1986), the standard non-blocking comparator for experiment E5, over
// recycled nodes: nodes come from a memory.Pool and the head register
// is a tagged 〈handle, seqnb〉 word. Reuse makes ABA a real
// possibility — a popped node can return as the head while a slow pop
// still holds its old handle — and the §2.2 sequence tag CASed
// together with the handle is what makes the stale CAS fail. The
// steady state allocates nothing per operation (experiment E17).
//
// Operations take the calling pid for the pool's per-pid free lists.
// TryPush/TryPop are single attempts that abort iff the head CAS loses
// a race.
type Treiber[T any] struct {
	head *memory.TaggedRef[tNode[T]]
	pool *memory.Pool[tNode[T]]
}

// NewTreiber returns an empty Treiber stack for procs processes (pids
// in [0, procs)).
func NewTreiber[T any](procs int) *Treiber[T] { return NewTreiberObserved[T](procs, nil) }

// NewTreiberObserved returns a Treiber stack whose head-register
// accesses are reported to obs (nil disables instrumentation). Pool
// traffic and node fields are arena-private and not observed.
func NewTreiberObserved[T any](procs int, obs memory.Observer) *Treiber[T] {
	pool := memory.NewPool[tNode[T]](procs, nil)
	return &Treiber[T]{
		head: memory.NewTaggedRefObserved(pool, memory.PackTagged(memory.NilHandle, 0), obs),
		pool: pool,
	}
}

// TryPush is a single push attempt by pid; it aborts iff the head CAS
// loses a race. It never returns ErrFull (the stack is unbounded). On
// abort the node, never published, is cleared and recycled at once.
func (s *Treiber[T]) TryPush(pid int, v T) error {
	h := s.pool.Get(pid)
	n := s.pool.At(h)
	n.value = v
	top := s.head.Read()
	n.next.Store(uint64(top.Handle()))
	if s.head.CAS(top, top.Next(h)) {
		return nil
	}
	var zero T
	n.value = zero
	s.pool.Put(pid, h)
	return ErrAborted
}

// TryPop is a single pop attempt by pid. Only the successor is read
// before the CAS; if the node was recycled in between, the head tag
// has necessarily advanced (recycling requires the node to have been
// popped, and every pop CASes the head), so the CAS fails and the
// garbage read is discarded. This is why the node's next field needs
// no tag of its own: it is only trusted when the head CAS succeeds.
// The winner owns the node: it takes the value, clears it (the pool
// must not keep it reachable) and recycles the node.
func (s *Treiber[T]) TryPop(pid int) (T, error) {
	var zero T
	top := s.head.Read()
	if top.Handle() == memory.NilHandle {
		return zero, ErrEmpty
	}
	n := s.pool.At(top.Handle())
	next := memory.Handle(n.next.Load())
	if !s.head.CAS(top, top.Next(next)) {
		return zero, ErrAborted
	}
	v := n.value
	n.value = zero
	s.pool.Put(pid, top.Handle())
	return v, nil
}

// Push pushes v on behalf of pid, retrying aborted attempts (never
// returns an error; the signature keeps the weak/strong symmetry).
func (s *Treiber[T]) Push(pid int, v T) error {
	//contlint:allow retryloop E17 zero-alloc hot path: core.Retry's closure would escape per call; the bare loop keeps Push allocation-free
	for {
		if err := s.TryPush(pid, v); err != ErrAborted {
			return err
		}
	}
}

// Pop pops the top value on behalf of pid, retrying aborted attempts;
// it returns the value or ErrEmpty.
func (s *Treiber[T]) Pop(pid int) (T, error) {
	//contlint:allow retryloop E17 zero-alloc hot path: core.Retry's closure would escape per call; the bare loop keeps Pop allocation-free
	for {
		v, err := s.TryPop(pid)
		if err != ErrAborted {
			return v, err
		}
	}
}

// Len counts the elements; quiescent states only (O(n) walk).
func (s *Treiber[T]) Len() int {
	n := 0
	for h := s.head.Read().Handle(); h != memory.NilHandle; {
		n++
		h = memory.Handle(s.pool.At(h).next.Load())
	}
	return n
}

// PoolStats exposes the node pool's recycling counters (E17's
// forced-reuse table; quiescent states only).
func (s *Treiber[T]) PoolStats() memory.PoolStats { return s.pool.Stats() }

// PoolArenaSize returns the records the node pool has carved; it is
// safe under load.
func (s *Treiber[T]) PoolArenaSize() int { return s.pool.ArenaSize() }

// Progress reports NonBlocking (the retry loop is lock-free).
func (s *Treiber[T]) Progress() core.Progress { return core.NonBlocking }

var _ Strong[int] = (*Treiber[int])(nil)
