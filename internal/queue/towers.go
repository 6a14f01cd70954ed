package queue

import (
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/memory"
)

// NonBlocking is Figure 2 applied to the queue: retry the weak
// operation until non-⊥, under core.Retrier's manager and budget.
type NonBlocking[T any] struct {
	core.Retrier
	weak Weak[T]
}

// NewNonBlocking returns a non-blocking queue of capacity k with the
// paper's bare retry loop.
func NewNonBlocking[T any](k int) *NonBlocking[T] {
	return NewNonBlockingFrom[T](NewAbortable[T](k), nil)
}

// NewNonBlockingFrom builds the retry construction over any weak
// queue, pacing retries with m (nil for the bare loop).
func NewNonBlockingFrom[T any](weak Weak[T], m core.Manager) *NonBlocking[T] {
	return &NonBlocking[T]{Retrier: core.NewRetrier(m), weak: weak}
}

// Enqueue appends v, retrying aborted attempts; returns nil or ErrFull
// (or core.ErrExhausted when a retry budget is set and spent).
func (q *NonBlocking[T]) Enqueue(v T) error {
	_, _, err := core.RetryOp(&q.Retrier, ErrAborted, func() (struct{}, error) {
		return struct{}{}, q.weak.TryEnqueue(v)
	})
	return err
}

// Dequeue removes the oldest value, retrying aborted attempts; returns
// the value or ErrEmpty (or core.ErrExhausted when a retry budget is
// set and spent).
func (q *NonBlocking[T]) Dequeue() (T, error) {
	v, _, err := core.RetryOp(&q.Retrier, ErrAborted, q.weak.TryDequeue)
	return v, err
}

// Sensitive is Figure 3 applied to the queue: contention-sensitive and
// starvation-free. One guard is shared by both operations, because
// CONTENTION is a per-object signal.
type Sensitive[T any] struct {
	core.Guarded
	weak Weak[T]
}

// NewSensitive returns the paper's configuration for n processes: a
// fresh abortable queue of capacity k over the Figure 3 lock
// (lock.NewFigure3).
func NewSensitive[T any](k, n int) *Sensitive[T] { return NewSensitiveObserved[T](k, n, nil) }

// NewSensitiveFrom builds Figure 3 for n processes over any weak queue
// and PidLock.
func NewSensitiveFrom[T any](weak Weak[T], n int, lk lock.PidLock) *Sensitive[T] {
	return &Sensitive[T]{Guarded: core.NewGuarded(n, lk, nil), weak: weak}
}

// NewSensitiveObserved is NewSensitive with all shared accesses (weak
// queue and CONTENTION register) reported to obs.
func NewSensitiveObserved[T any](k, n int, obs memory.Observer) *Sensitive[T] {
	lk := lock.NewFigure3(n)
	return &Sensitive[T]{Guarded: core.NewGuarded(n, lk, obs), weak: NewAbortableObserved[T](k, obs)}
}

// Enqueue is the strong enqueue: never aborts, returns nil or ErrFull.
func (q *Sensitive[T]) Enqueue(pid int, v T) error {
	_, err := core.DoOp(q.Guard(), pid, ErrAborted, func() (struct{}, error) {
		return struct{}{}, q.weak.TryEnqueue(v)
	})
	return err
}

// Dequeue is the strong dequeue: never aborts, returns the oldest
// value or ErrEmpty.
func (q *Sensitive[T]) Dequeue(pid int) (T, error) {
	return core.DoOp(q.Guard(), pid, ErrAborted, q.weak.TryDequeue)
}

// Snapshot returns the elements oldest-first when the weak backend
// exposes a snapshot, nil otherwise. Quiescent states only: the weak
// snapshot is not atomic under concurrent updates. The adaptive tier
// calls it on a quiesced source to rebuild the migration target.
func (q *Sensitive[T]) Snapshot() []T { return core.Snapshot[T](q.weak) }

// Len returns the number of elements when the weak backend exposes a
// length (quiescent states only), -1 otherwise.
func (q *Sensitive[T]) Len() int { return core.Len(q.weak) }

// LockBased is the traditional fully lock-based bounded queue (§1.1's
// baseline): every operation takes the lock.
type LockBased[T any] struct {
	lk   lock.PidLock
	buf  []T
	head int
	size int
}

// NewLockBased returns a mutex-guarded queue of capacity k.
func NewLockBased[T any](k int) *LockBased[T] {
	return NewLockBasedWith[T](k, lock.IgnorePid(lock.NewMutex()))
}

// NewLockBasedWith returns a queue of capacity k guarded by lk.
func NewLockBasedWith[T any](k int, lk lock.PidLock) *LockBased[T] {
	if k < 1 {
		panic("queue: capacity must be >= 1")
	}
	return &LockBased[T]{lk: lk, buf: make([]T, k)}
}

// Capacity returns the number of storable elements.
func (q *LockBased[T]) Capacity() int { return len(q.buf) }

// Enqueue appends v; returns nil or ErrFull.
func (q *LockBased[T]) Enqueue(pid int, v T) error {
	q.lk.Acquire(pid)
	defer q.lk.Release(pid)
	if q.size == len(q.buf) {
		return ErrFull
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	return nil
}

// Dequeue removes the oldest value; returns it or ErrEmpty.
func (q *LockBased[T]) Dequeue(pid int) (T, error) {
	q.lk.Acquire(pid)
	defer q.lk.Release(pid)
	var zero T
	if q.size == 0 {
		return zero, ErrEmpty
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v, nil
}

// Len returns the number of elements; quiescent states only.
func (q *LockBased[T]) Len() int { return q.size }

// Progress reports the condition inherited from the lock.
func (q *LockBased[T]) Progress() core.Progress { return core.LockProgress(q.lk) }

var (
	_ Strong[int] = (*Sensitive[int])(nil)
	_ Strong[int] = (*LockBased[int])(nil)
)
