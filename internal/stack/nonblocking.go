package stack

import (
	"repro/internal/core"
)

// NonBlocking is the paper's Figure 2: the linearizable non-blocking
// stack obtained by retrying a weak operation until it returns
// non-⊥. Push and Pop never abort; under contention at least one of
// the concurrent operations always terminates, but an individual
// operation may retry unboundedly (no starvation-freedom).
//
// A contention manager (§5) may pace the retries and a budget may
// bound them (core.Retrier); the paper's bare loop is the zero policy.
type NonBlocking[T any] struct {
	core.Retrier
	weak Weak[T]
}

// NewNonBlocking returns a non-blocking stack of capacity k for n
// processes (pids in [0, n)) over a fresh abortable stack, with the
// paper's bare retry loop.
func NewNonBlocking[T any](k, n int) *NonBlocking[T] {
	return NewNonBlockingFrom[T](NewAbortable[T](k, n), nil)
}

// NewNonBlockingFrom builds the Figure 2 construction over any weak
// stack, pacing retries with m (nil for the bare loop). Sharing one
// weak stack between a NonBlocking wrapper and other users is safe:
// the construction adds no state of its own.
func NewNonBlockingFrom[T any](weak Weak[T], m core.Manager) *NonBlocking[T] {
	return &NonBlocking[T]{Retrier: core.NewRetrier(m), weak: weak}
}

// Push pushes v on behalf of pid, retrying aborted attempts; it
// returns nil or ErrFull (or core.ErrExhausted when a retry budget is
// set and spent).
func (s *NonBlocking[T]) Push(pid int, v T) error {
	err, _ := s.PushCounted(pid, v)
	return err
}

// Pop pops the top value on behalf of pid, retrying aborted attempts;
// it returns the value or ErrEmpty (or core.ErrExhausted when a retry
// budget is set and spent).
func (s *NonBlocking[T]) Pop(pid int) (T, error) {
	v, err, _ := s.PopCounted(pid)
	return v, err
}

// PushCounted is Push instrumented for E3/E7: it also reports how many
// attempts aborted.
func (s *NonBlocking[T]) PushCounted(pid int, v T) (error, int) {
	_, aborts, err := core.RetryOp(&s.Retrier, ErrAborted, func() (struct{}, error) {
		return struct{}{}, s.weak.TryPush(pid, v)
	})
	return err, aborts
}

// PopCounted is Pop instrumented for E3/E7.
func (s *NonBlocking[T]) PopCounted(pid int) (T, error, int) {
	v, aborts, err := core.RetryOp(&s.Retrier, ErrAborted, func() (T, error) {
		return s.weak.TryPop(pid)
	})
	return v, err, aborts
}

var _ Strong[int] = (*NonBlocking[int])(nil)
