package core

import "errors"

// Manager is a contention manager (§5): a policy deciding how a
// process behaves between failed attempts of a weak operation.
// Implementations live in package cmanager. Managers may be shared by
// several goroutines and must be safe for concurrent use.
type Manager interface {
	// OnAbort is called after the attempt-th consecutive abort of the
	// current operation (attempt starts at 1). The manager may spin,
	// yield or sleep to pace the retry.
	OnAbort(attempt int)
	// OnSuccess is called once when the operation finally succeeds,
	// letting adaptive managers reset their state.
	OnSuccess()
}

// ErrExhausted is returned by a budgeted Retrier when the budget ran
// out before any attempt took effect. It is the graceful-degradation
// escape hatch from Figure 2's unbounded loop: under livelock-grade
// interference a caller with a budget sheds the operation (with no
// effect on the object) instead of spinning forever.
var ErrExhausted = errors.New("core: retry budget exhausted")

// Retrier is the per-object state of Figure 2's construction: the
// contention manager pacing retries and the attempt budget. Every
// Figure 2 shell embeds one, which gives it SetRetryPolicy,
// RetryPolicy and Progress. The zero value is the paper's bare loop.
type Retrier struct {
	m      Manager
	budget int
}

// NewRetrier returns an unbudgeted Retrier pacing retries with m (nil
// for the bare loop).
func NewRetrier(m Manager) Retrier { return Retrier{m: m} }

// SetRetryPolicy replaces the contention manager and sets an attempt
// budget (0 = unbounded, the paper's loop). With a budget, an
// operation whose every attempt aborts returns ErrExhausted with no
// effect — graceful degradation instead of livelock. Call at
// quiescence (construction time).
func (r *Retrier) SetRetryPolicy(m Manager, budget int) { r.m, r.budget = m, budget }

// RetryPolicy reports the current contention manager and attempt
// budget (tests and diagnostics).
func (r *Retrier) RetryPolicy() (Manager, int) { return r.m, r.budget }

// Progress reports NonBlocking: at least one concurrent operation
// terminates (proved in Shafiei's paper, cited as [22]).
func (r *Retrier) Progress() Progress { return NonBlocking }

// Abort records the attempt-th consecutive abort of an operation. It
// reports true when the budget is spent, so the caller sheds the
// operation; otherwise it paces the retry with the manager. Pacing
// happens between attempts only: a shed operation pays no final
// backoff.
func (r *Retrier) Abort(attempt int) (exhausted bool) {
	if r.budget > 0 && attempt >= r.budget {
		return true
	}
	if r.m != nil {
		r.m.OnAbort(attempt)
	}
	return false
}

// Succeed tells the manager that the current operation took effect.
func (r *Retrier) Succeed() {
	if r.m != nil {
		r.m.OnSuccess()
	}
}

// RetryOp is Figure 2's construction, the one retry loop of the
// package:
//
//	repeat res ← weak_op() until res ≠ ⊥
//
// try is one weak attempt in the objects' own (value, error) shape,
// and an error equal to bot is ⊥. RetryOp retries under r's manager
// and budget and returns the first non-⊥ result with the number of
// aborted attempts, or the zero value and ErrExhausted once the budget
// is spent.
func RetryOp[V any](r *Retrier, bot error, try func() (V, error)) (v V, aborts int, err error) {
	for {
		v, err = try()
		if !bottom(err, bot) {
			r.Succeed()
			return v, aborts, err
		}
		aborts++
		if r.Abort(aborts) {
			var zero V
			return zero, aborts, ErrExhausted
		}
	}
}

// bottom reports whether err is the weak attempt's ⊥. A nil bot makes
// every non-nil error ⊥: the set's weak updates abort with ErrAborted
// or, against a sealed root, ErrSealed.
func bottom(err, bot error) bool { return err != nil && (bot == nil || err == bot) }

// errBottom is the ⊥ of a comma-ok attempt seen through commaOK.
var errBottom = errors.New("core: attempt aborted")

// commaOK adapts a comma-ok weak attempt, func() (R, bool), to the
// (value, error) shape of RetryOp and DoOp, reporting ok=false as
// errBottom.
type commaOK[R any] func() (R, bool)

func (try commaOK[R]) attempt() (R, error) {
	r, ok := try()
	if !ok {
		return r, errBottom
	}
	return r, nil
}

// Retry is RetryOp over a comma-ok weak attempt, unbudgeted: m paces
// the retries, and a nil m reproduces the paper's bare loop. Retry
// never aborts; it returns only when an attempt took effect.
func Retry[R any](m Manager, try func() (R, bool)) R {
	res, _ := RetryCounted(m, try)
	return res
}

// RetryCounted is Retry instrumented for the E3/E7 experiments: it
// additionally reports how many attempts aborted before success.
func RetryCounted[R any](m Manager, try func() (R, bool)) (res R, aborts int) {
	res, aborts, _ = RetryOp(&Retrier{m: m}, errBottom, commaOK[R](try).attempt)
	return res, aborts
}
