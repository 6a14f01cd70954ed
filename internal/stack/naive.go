package stack

import (
	"repro/internal/memory"
)

// Naive is the cautionary tale of §2.2 made executable: a
// plausible-looking CAS-based bounded stack with NO sequence tags. The
// top-of-stack index lives in one CAS-able word and the cells are
// plain registers written non-atomically with the index update.
//
// The algorithm suffers the ABA problem: between a process's read of
// TOP=i and its CAS, other processes can pop and re-push so that TOP
// returns to i with different contents, and the stale CAS still
// succeeds — a pop can then return a value that was already popped
// while a freshly pushed value is lost. Experiment E8 exhibits a
// concrete interleaving under the deterministic scheduler and shows
// the tagged Abortable stack survives the same schedules.
//
// Naive is exported only for experiments and tests; do not use it.
type Naive[T any] struct {
	top   *memory.Word // holds the index of the top element (0 = empty)
	cells *memory.Refs[T]
	k     int
}

// NewNaive returns a naive (ABA-broken) stack of capacity k.
func NewNaive[T any](k int) *Naive[T] { return NewNaiveObserved[T](k, nil) }

// NewNaiveObserved returns an instrumented naive stack (nil obs
// disables instrumentation); the deterministic scheduler drives it
// through this hook.
func NewNaiveObserved[T any](k int, obs memory.Observer) *Naive[T] {
	if k < 1 {
		panic("stack: capacity must be >= 1")
	}
	var zero T
	return &Naive[T]{
		top:   memory.NewWordObserved(0, obs),
		cells: memory.NewRefs(k+1, func(int) *T { z := zero; return &z }, obs),
		k:     k,
	}
}

// TryPush is a single push attempt (the pid is ignored). The fatal
// flaw: the cell is written *before* the index CAS, with no tag tying
// the two together.
func (s *Naive[T]) TryPush(_ int, v T) error {
	t := s.top.Read()
	if int(t) == s.k {
		return ErrFull
	}
	s.cells.Write(int(t)+1, &v)
	if s.top.CAS(t, t+1) {
		return nil
	}
	return ErrAborted
}

// TryPop is a single pop attempt (the pid is ignored). The fatal flaw:
// the value is read before the index CAS, and the CAS succeeding does
// not prove the stack was untouched (ABA on the index word).
func (s *Naive[T]) TryPop(int) (T, error) {
	var zero T
	t := s.top.Read()
	if t == 0 {
		return zero, ErrEmpty
	}
	v := s.cells.Read(int(t))
	if s.top.CAS(t, t-1) {
		return *v, nil
	}
	return zero, ErrAborted
}

// Len returns the element count; quiescent states only.
func (s *Naive[T]) Len() int { return int(s.top.Read()) }

var _ Weak[int] = (*Naive[int])(nil)
