package queue

import (
	"repro/internal/combine"
	"repro/internal/core"
)

// combOp is one published queue request: enqueue (with the value) or
// dequeue.
type combOp[T any] struct {
	enq bool
	v   T
}

// combRes is a served request's outcome: the dequeued value (dequeue
// only) and the sentinel error (nil, ErrFull, or ErrEmpty — never
// ErrAborted).
type combRes[T any] struct {
	v   T
	err error
}

// Combining is the flat-combining FIFO queue: the same interface and
// lock-free fast path as Sensitive, with the contended path batched —
// one combiner serves every published request under a single
// combiner-lock acquisition instead of each process taking the
// slow-path lock in turn. See internal/combine.
type Combining[T any] struct {
	weak Weak[T]
	core *combine.Core[combOp[T], combRes[T]]
}

// NewCombining returns a flat-combining queue of capacity k for n
// processes (pids in [0, n)) over the abortable ring queue.
func NewCombining[T any](k, n int) *Combining[T] {
	return NewCombiningFrom[T](NewAbortable[T](k), n)
}

// NewCombiningFrom builds the flat-combining construction over any
// weak queue for n processes.
func NewCombiningFrom[T any](weak Weak[T], n int) *Combining[T] {
	q := &Combining[T]{weak: weak}
	q.core = combine.NewCore[combOp[T], combRes[T]](n, q.attempt)
	return q
}

// attempt adapts the weak queue to combine.Core's try shape. The
// executing pid is unused: every weak queue backend is pid-oblivious.
func (q *Combining[T]) attempt(_ int, op combOp[T]) (combRes[T], bool) {
	if op.enq {
		err := q.weak.TryEnqueue(op.v)
		return combRes[T]{err: err}, err != ErrAborted
	}
	v, err := q.weak.TryDequeue()
	return combRes[T]{v: v, err: err}, err != ErrAborted
}

// Enqueue appends v on behalf of pid; it returns nil or ErrFull and
// never aborts.
func (q *Combining[T]) Enqueue(pid int, v T) error {
	return q.core.Do(pid, combOp[T]{enq: true, v: v}).err
}

// Dequeue removes the oldest value on behalf of pid; it returns the
// value or ErrEmpty and never aborts.
func (q *Combining[T]) Dequeue(pid int) (T, error) {
	r := q.core.Do(pid, combOp[T]{})
	return r.v, r.err
}

// EnqueueContended enqueues entirely on the contended path: the
// request is published without attempting the lock-free shortcut.
// Benchmarks and fuzz targets use it to drive the publication
// machinery deterministically.
func (q *Combining[T]) EnqueueContended(pid int, v T) error {
	return q.core.DoContended(pid, combOp[T]{enq: true, v: v}).err
}

// DequeueContended dequeues entirely on the contended path; see
// EnqueueContended.
func (q *Combining[T]) DequeueContended(pid int) (T, error) {
	r := q.core.DoContended(pid, combOp[T]{})
	return r.v, r.err
}

// Len returns the weak backend's length when it exposes one
// (quiescent states only), -1 otherwise.
func (q *Combining[T]) Len() int {
	if s, ok := q.weak.(interface{ Len() int }); ok {
		return s.Len()
	}
	return -1
}

// Snapshot returns the weak backend's elements oldest-first when it
// exposes a snapshot, nil otherwise. Quiescent states only — the
// adaptive tier calls it on a quiesced source to rebuild the migration
// target.
func (q *Combining[T]) Snapshot() []T {
	if s, ok := q.weak.(interface{ Snapshot() []T }); ok {
		return s.Snapshot()
	}
	return nil
}

// Capacity returns the weak backend's capacity when it exposes one,
// -1 otherwise.
func (q *Combining[T]) Capacity() int {
	if s, ok := q.weak.(interface{ Capacity() int }); ok {
		return s.Capacity()
	}
	return -1
}

// AbandonEnqueue publishes an enqueue request that will never be
// collected — the scenario layer's model of a process crashing
// mid-enqueue: the request is pending and a combiner may or may not
// serve it. pid must never operate on this queue again.
func (q *Combining[T]) AbandonEnqueue(pid int, v T) {
	q.core.Publish(pid, combOp[T]{enq: true, v: v})
}

// AbandonDequeue is AbandonEnqueue for a dequeue request.
func (q *Combining[T]) AbandonDequeue(pid int) {
	q.core.Publish(pid, combOp[T]{})
}

// ArmCombinerCrash arms the combine.Core fault injection: pid's next
// combining pass dies after `after` slot applications with the lease
// held. See combine.Core.ArmCombinerCrash.
func (q *Combining[T]) ArmCombinerCrash(pid, after int) bool {
	return q.core.ArmCombinerCrash(pid, after)
}

// SetLeaseBudget forwards to combine.Core.SetLeaseBudget (tests).
func (q *Combining[T]) SetLeaseBudget(n int) { q.core.SetLeaseBudget(n) }

// Stats exposes the fast-path and combining counters.
func (q *Combining[T]) Stats() combine.Stats { return q.core.Stats() }

// ResetStats zeroes the counters (between quiescent phases only).
func (q *Combining[T]) ResetStats() { q.core.ResetStats() }

// Progress reports StarvationFree (internal/combine's liveness
// argument).
func (q *Combining[T]) Progress() core.Progress { return core.StarvationFree }

var _ Strong[int] = (*Combining[int])(nil)
