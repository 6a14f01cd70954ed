package stack

import (
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/memory"
)

// Sensitive is the paper's Figure 3: the contention-sensitive,
// starvation-free stack. An operation invoked in a contention-free
// context completes on the lock-free shortcut in exactly six shared
// memory accesses (Theorem 1); operations that hit contention
// serialize behind a single lock, made starvation-free by the
// FLAG/TURN round-robin (lock.RoundRobin).
type Sensitive[T any] struct {
	core.Guarded
	weak Weak[T]
}

// NewSensitive returns the paper's exact configuration for n
// processes: a fresh abortable stack of capacity k guarded by the
// Figure 3 lock, round-robin over a deadlock-free TTAS lock
// (lock.NewFigure3).
// Callers pass pids in [0, n).
func NewSensitive[T any](k, n int) *Sensitive[T] { return NewSensitiveObserved[T](k, n, nil) }

// NewSensitiveObserved is NewSensitive with every shared access of
// both the weak stack and the CONTENTION register reported to obs —
// the configuration under which E1 counts Theorem 1's six accesses.
func NewSensitiveObserved[T any](k, n int, obs memory.Observer) *Sensitive[T] {
	return NewSensitiveFrom[T](NewAbortableObserved[T](k, n, obs), n, lock.NewFigure3(n), obs)
}

// NewSensitiveFrom builds Figure 3 for n processes over any weak stack
// and any PidLock, reporting the CONTENTION register's accesses to obs (nil
// for none); an instrumented weak stack lets E1 count a backend end to
// end. Use lock.IgnorePid(starvationFreeLock) for the simplified
// variant of the paper's §4 Remark.
func NewSensitiveFrom[T any](weak Weak[T], n int, lk lock.PidLock, obs memory.Observer) *Sensitive[T] {
	return &Sensitive[T]{Guarded: core.NewGuarded(n, lk, obs), weak: weak}
}

// Push is strong_push(v): it always takes effect (or reports a full
// stack) and never aborts, whatever the contention (Lemma 1,
// Theorem 1). pid identifies the calling process for the slow path's
// round-robin.
func (s *Sensitive[T]) Push(pid int, v T) error {
	_, err := core.DoOp(s.Guard(), pid, ErrAborted, func() (struct{}, error) {
		return struct{}{}, s.weak.TryPush(pid, v)
	})
	return err
}

// Pop is strong_pop(): it always returns the top value or ErrEmpty,
// never aborts, and terminates for every caller.
func (s *Sensitive[T]) Pop(pid int) (T, error) {
	return core.DoOp(s.Guard(), pid, ErrAborted, func() (T, error) {
		return s.weak.TryPop(pid)
	})
}

// Snapshot returns the elements bottom-first when the weak backend
// exposes a snapshot, nil otherwise. Quiescent states only: the weak
// snapshot is not atomic under concurrent updates. The adaptive tier
// calls it on a quiesced source to rebuild the migration target.
func (s *Sensitive[T]) Snapshot() []T { return core.Snapshot[T](s.weak) }

// Len returns the number of elements when the weak backend exposes a
// length (quiescent states only), -1 otherwise.
func (s *Sensitive[T]) Len() int { return core.Len(s.weak) }

var _ Strong[int] = (*Sensitive[int])(nil)
