package set

import (
	"repro/internal/core"
)

// NonBlocking is the Figure 2 construction over a weak set: retry each
// weak attempt until it returns non-⊥. Operations never abort; under
// contention at least one concurrent operation always terminates, but
// an individual update may retry unboundedly. A contention manager
// (§5) may pace the retries and a budget may bound them
// (core.Retrier); the paper's bare loop is the zero policy.
//
// The Strong set interface reports updates as booleans, so a
// budget-exhausted Add/Remove sheds the operation with no effect and
// reports false — accurate in effect terms (nothing was inserted or
// removed), indistinguishable from a no-op outcome.
type NonBlocking struct {
	core.Retrier
	weak Weak
}

// NewNonBlocking returns a non-blocking set over a fresh abortable
// set, with the paper's bare retry loop.
func NewNonBlocking() *NonBlocking {
	return NewNonBlockingFrom(NewAbortable(), nil)
}

// NewNonBlockingFrom builds the Figure 2 construction over any weak
// set, pacing retries with m (nil for the bare loop).
func NewNonBlockingFrom(weak Weak, m core.Manager) *NonBlocking {
	return &NonBlocking{Retrier: core.NewRetrier(m), weak: weak}
}

// Add inserts k, retrying aborted (or sealed) attempts; it reports
// whether k was newly inserted. The pid is unused (kept for the
// Strong shape).
func (s *NonBlocking) Add(_ int, k uint64) bool {
	added, _, _ := core.RetryOp(&s.Retrier, nil, func() (bool, error) { return s.weak.TryAdd(k) })
	return added
}

// Remove deletes k, retrying aborted (or sealed) attempts; it reports
// whether k was present.
func (s *NonBlocking) Remove(_ int, k uint64) bool {
	removed, _, _ := core.RetryOp(&s.Retrier, nil, func() (bool, error) { return s.weak.TryRemove(k) })
	return removed
}

// Contains reports membership: the weak check never aborts, so the
// "retry loop" is a single wait-free attempt.
func (s *NonBlocking) Contains(_ int, k uint64) bool {
	ok, _ := s.weak.TryContains(k)
	return ok
}

// Snapshot returns the resident keys in ascending order when the
// underlying weak set can produce one (the copy-on-write list can);
// it returns nil otherwise. Meaningful at quiescence only.
func (s *NonBlocking) Snapshot() []uint64 { return core.Snapshot[uint64](s.weak) }

var _ Strong = (*NonBlocking)(nil)
