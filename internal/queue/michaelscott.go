package queue

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memory"
)

// msNode is a Michael-Scott link recycled through a memory.Pool. next
// holds a packed memory.TaggedVal whose tag is NEVER reset: it
// accumulates across the node's lives, which is exactly the original
// algorithm's counted-pointer discipline (Michael & Scott, PODC'96)
// and what makes a free-list node safe to reuse. next is atomic
// because a stale reader may load it while a recycler rewrites the
// node.
//
// value is a plain T read only by the dequeuer whose head CAS made
// the node the dummy. Until that dequeuer has taken the value, a later
// dequeuer may already have moved head past the node; refs keeps the
// node out of the pool until both are done with it: 2 on enqueue (the
// consumer of the value and the dequeuer that unlinks the node as a
// retired dummy), 1 on the initial dummy (no value). Whichever release
// brings it to 0 recycles the node.
type msNode[T any] struct {
	next  atomic.Uint64
	refs  atomic.Int32
	value T
}

// MichaelScott is the classic unbounded lock-free FIFO queue (Michael
// & Scott, PODC'96), the standard non-blocking comparator for the E9
// experiment, with the original paper's free-list memory management:
// nodes are recycled through a memory.Pool and head/tail are tagged
// 〈handle, seqnb〉 registers. Reuse makes ABA real (the retired dummy
// can come back as the tail while a slow dequeue still holds its old
// handle) and the §2.2 tags — on head, tail, and every node's next
// field — are load-bearing. The steady state allocates nothing per
// operation (experiment E17).
//
// Operations take the calling pid for the pool's per-pid free lists.
type MichaelScott[T any] struct {
	head *memory.TaggedRef[msNode[T]] // dummy; head.next is the front
	tail *memory.TaggedRef[msNode[T]] // last or second-to-last node
	pool *memory.Pool[msNode[T]]
}

// NewMichaelScott returns an empty queue for procs processes (pids in
// [0, procs)).
func NewMichaelScott[T any](procs int) *MichaelScott[T] {
	return NewMichaelScottObserved[T](procs, nil)
}

// NewMichaelScottObserved returns an instrumented queue: head and
// tail accesses are reported to obs (nil disables instrumentation).
// Node fields and pool traffic are not observed (they are not
// registers of the paper's model).
func NewMichaelScottObserved[T any](procs int, obs memory.Observer) *MichaelScott[T] {
	pool := memory.NewPool[msNode[T]](procs, nil)
	dummy := pool.Get(0)
	pool.At(dummy).refs.Store(1)
	init := memory.PackTagged(dummy, 0)
	return &MichaelScott[T]{
		head: memory.NewTaggedRefObserved(pool, init, obs),
		tail: memory.NewTaggedRefObserved(pool, init, obs),
		pool: pool,
	}
}

// release drops one of h's references and recycles the node on the
// last one.
func (q *MichaelScott[T]) release(pid int, h memory.Handle) {
	if q.pool.At(h).refs.Add(-1) == 0 {
		q.pool.Put(pid, h)
	}
}

// Enqueue appends v on behalf of pid. It always succeeds (the queue is
// unbounded, so the error is always nil) and is lock-free. The shape
// is MS'96 with counted pointers: the consistency re-read of tail is
// REQUIRED — a stale tail's node may have been recycled, and only a
// tail unchanged across the next-read proves the next word belonged
// to this life of the node.
func (q *MichaelScott[T]) Enqueue(pid int, v T) error {
	h := q.pool.Get(pid)
	n := q.pool.At(h)
	n.value = v
	n.refs.Store(2)
	// Reset next to nil, advancing its accumulated tag. A node is only
	// freed after its next was CASed non-nil (the dequeue that retired
	// it moved head over that successor), so every stale 〈nil, tag〉 a
	// slow enqueuer may still hold is strictly older than this word and
	// its CAS on it must fail.
	old := memory.TaggedVal(n.next.Load())
	n.next.Store(uint64(old.Next(memory.NilHandle)))
	//contlint:allow retryloop E17 zero-alloc hot path: core.Retry's closure would escape per call; the bare helping loop keeps Enqueue allocation-free
	for {
		t := q.tail.Read()
		tn := q.pool.At(t.Handle())
		next := memory.TaggedVal(tn.next.Load())
		if q.tail.Read() != t {
			continue // tail moved: next may be another life's word
		}
		if next.Handle() == memory.NilHandle {
			if tn.next.CompareAndSwap(uint64(next), uint64(next.Next(h))) {
				q.tail.CAS(t, t.Next(h)) // swing; failure means someone helped
				return nil
			}
		} else {
			q.tail.CAS(t, t.Next(next.Handle())) // help a lagging enqueue
		}
	}
}

// Dequeue removes the oldest value on behalf of pid; it returns the
// value or ErrEmpty. The winning head CAS makes the front node the new
// dummy and retires the old one; the value is read only after that
// CAS, then both nodes are released (see msNode.refs).
func (q *MichaelScott[T]) Dequeue(pid int) (T, error) {
	var zero T
	//contlint:allow retryloop E17 zero-alloc hot path: core.Retry's closure would escape per call; the bare helping loop keeps Dequeue allocation-free
	for {
		hd := q.head.Read()
		t := q.tail.Read()
		hn := q.pool.At(hd.Handle())
		next := memory.TaggedVal(hn.next.Load())
		if q.head.Read() != hd {
			continue // head moved: next may be another life's word
		}
		if hd.Handle() == t.Handle() {
			if next.Handle() == memory.NilHandle {
				return zero, ErrEmpty
			}
			q.tail.CAS(t, t.Next(next.Handle())) // help a lagging enqueue
			continue
		}
		if next.Handle() == memory.NilHandle {
			continue // stale tail read; retry
		}
		if q.head.CAS(hd, hd.Next(next.Handle())) {
			front := q.pool.At(next.Handle())
			v := front.value
			front.value = zero
			q.release(pid, next.Handle())
			q.release(pid, hd.Handle())
			return v, nil
		}
	}
}

// Len counts the elements; quiescent states only (O(n) walk).
func (q *MichaelScott[T]) Len() int {
	n := 0
	h := memory.TaggedVal(q.pool.At(q.head.Read().Handle()).next.Load()).Handle()
	for h != memory.NilHandle {
		n++
		h = memory.TaggedVal(q.pool.At(h).next.Load()).Handle()
	}
	return n
}

// PoolStats exposes the node pool's recycling counters (quiescent
// states only).
func (q *MichaelScott[T]) PoolStats() memory.PoolStats { return q.pool.Stats() }

// PoolArenaSize returns the records the node pool has carved; it is
// safe under load.
func (q *MichaelScott[T]) PoolArenaSize() int { return q.pool.ArenaSize() }

// Progress reports NonBlocking (lock-freedom).
func (q *MichaelScott[T]) Progress() core.Progress { return core.NonBlocking }
