package deque

import (
	"repro/internal/core"
	"repro/internal/lock"
)

// NonBlocking is Figure 2 applied to the deque: retry each weak
// operation until non-⊥, under core.Retrier's manager and budget. This
// is precisely the "boosting" step the paper's §1.2 describes for
// obstruction-free algorithms.
type NonBlocking struct {
	core.Retrier
	weak *Abortable
}

// NewNonBlocking returns a non-blocking deque of capacity k with the
// bare retry loop.
func NewNonBlocking(k int) *NonBlocking {
	return NewNonBlockingFrom(NewAbortable(k), nil)
}

// NewNonBlockingFrom builds the retry construction over an existing
// weak deque, pacing retries with m (nil for the bare loop).
func NewNonBlockingFrom(weak *Abortable, m core.Manager) *NonBlocking {
	return &NonBlocking{Retrier: core.NewRetrier(m), weak: weak}
}

// PushRight appends v on the right; nil or ErrFull.
func (d *NonBlocking) PushRight(v uint32) error {
	_, _, err := core.RetryOp(&d.Retrier, ErrAborted, func() (struct{}, error) {
		return struct{}{}, d.weak.TryPushRight(v)
	})
	return err
}

// PushLeft prepends v on the left; nil or ErrFull.
func (d *NonBlocking) PushLeft(v uint32) error {
	_, _, err := core.RetryOp(&d.Retrier, ErrAborted, func() (struct{}, error) {
		return struct{}{}, d.weak.TryPushLeft(v)
	})
	return err
}

// PopRight removes the rightmost value; the value or ErrEmpty.
func (d *NonBlocking) PopRight() (uint32, error) {
	v, _, err := core.RetryOp(&d.Retrier, ErrAborted, d.weak.TryPopRight)
	return v, err
}

// PopLeft removes the leftmost value; the value or ErrEmpty.
func (d *NonBlocking) PopLeft() (uint32, error) {
	v, _, err := core.RetryOp(&d.Retrier, ErrAborted, d.weak.TryPopLeft)
	return v, err
}

// Sensitive is Figure 3 applied to the deque: all four operations
// share one guard (CONTENTION is per object), making the deque
// linearizable, starvation-free, and contention-sensitive.
type Sensitive struct {
	core.Guarded
	weak *Abortable
}

// NewSensitive returns the paper's configuration for n processes: a
// fresh weak deque of capacity k behind the Figure 3 lock
// (lock.NewFigure3).
func NewSensitive(k, n int) *Sensitive {
	return NewSensitiveFrom(NewAbortable(k), lock.NewFigure3(n))
}

// NewSensitiveFrom builds Figure 3 over an existing weak deque and
// PidLock.
func NewSensitiveFrom(weak *Abortable, lk lock.PidLock) *Sensitive {
	return &Sensitive{Guarded: core.NewGuarded(lk, nil), weak: weak}
}

// PushRight appends v on the right; never aborts.
func (d *Sensitive) PushRight(pid int, v uint32) error {
	_, err := core.DoOp(d.Guard(), pid, ErrAborted, func() (struct{}, error) {
		return struct{}{}, d.weak.TryPushRight(v)
	})
	return err
}

// PushLeft prepends v on the left; never aborts.
func (d *Sensitive) PushLeft(pid int, v uint32) error {
	_, err := core.DoOp(d.Guard(), pid, ErrAborted, func() (struct{}, error) {
		return struct{}{}, d.weak.TryPushLeft(v)
	})
	return err
}

// PopRight removes the rightmost value; never aborts.
func (d *Sensitive) PopRight(pid int) (uint32, error) {
	return core.DoOp(d.Guard(), pid, ErrAborted, d.weak.TryPopRight)
}

// PopLeft removes the leftmost value; never aborts.
func (d *Sensitive) PopLeft(pid int) (uint32, error) {
	return core.DoOp(d.Guard(), pid, ErrAborted, d.weak.TryPopLeft)
}
