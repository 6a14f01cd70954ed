package stack

import (
	"repro/internal/core"
	"repro/internal/lock"
)

// LockBased is the traditional fully lock-based bounded stack the
// paper positions itself against (§1.1): every operation, contended or
// not, takes the lock. Its progress condition is that of the lock —
// starvation-free over a starvation-free lock, deadlock-free
// otherwise. It is the baseline of experiments E4-E6.
type LockBased[T any] struct {
	lk  lock.PidLock
	buf []T
	top int
}

// NewLockBased returns a lock-based stack of capacity k guarded by a
// mutex (the "what you would actually write" baseline).
func NewLockBased[T any](k int) *LockBased[T] {
	return NewLockBasedWith[T](k, lock.IgnorePid(lock.NewMutex()))
}

// NewLockBasedWith returns a lock-based stack of capacity k guarded by
// lk, so the experiments can vary the lock's liveness class.
func NewLockBasedWith[T any](k int, lk lock.PidLock) *LockBased[T] {
	if k < 1 {
		panic("stack: capacity must be >= 1")
	}
	return &LockBased[T]{lk: lk, buf: make([]T, 0, k)}
}

// Capacity returns the number of storable elements.
func (s *LockBased[T]) Capacity() int { return cap(s.buf) }

// Push pushes v; it returns nil or ErrFull.
func (s *LockBased[T]) Push(pid int, v T) error {
	s.lk.Acquire(pid)
	defer s.lk.Release(pid)
	if len(s.buf) == cap(s.buf) {
		return ErrFull
	}
	s.buf = append(s.buf, v)
	return nil
}

// Pop pops the top value; it returns the value or ErrEmpty.
func (s *LockBased[T]) Pop(pid int) (T, error) {
	s.lk.Acquire(pid)
	defer s.lk.Release(pid)
	var zero T
	if len(s.buf) == 0 {
		return zero, ErrEmpty
	}
	v := s.buf[len(s.buf)-1]
	s.buf[len(s.buf)-1] = zero // do not retain popped values
	s.buf = s.buf[:len(s.buf)-1]
	return v, nil
}

// Len returns the number of elements; quiescent states only (the read
// is unsynchronized by design, for symmetry with the other stacks).
func (s *LockBased[T]) Len() int { return len(s.buf) }

// Progress reports the progress condition inherited from the lock.
func (s *LockBased[T]) Progress() core.Progress { return core.LockProgress(s.lk) }

var _ Strong[int] = (*LockBased[int])(nil)
