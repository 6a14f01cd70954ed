package set

import (
	"repro/internal/core"
	"repro/internal/lock"
)

// Sensitive is the contention-sensitive, starvation-free set: the
// Figure 3 construction (core.DoOp) over a weak abortable set, where
// an aborted or sealed attempt is ⊥. Mutating operations invoked in a
// contention-free context complete on the lock-free shortcut (one
// CONTENTION read plus one weak attempt); under contention they
// serialize behind the starvation-free round-robin lock. Contains
// bypasses the guard entirely: the weak set's membership check never
// aborts, so wrapping it in the protocol would only add the CONTENTION
// read and, worse, park wait-free readers on the slow-path lock —
// reads stay wait-free instead.
type Sensitive struct {
	core.Guarded
	weak Weak
}

// NewSensitive returns the paper's exact configuration for n processes
// over a fresh abortable set: the Figure 3 lock, round-robin over a
// deadlock-free TTAS lock (lock.NewFigure3). Callers pass pids in
// [0, n).
func NewSensitive(n int) *Sensitive {
	return NewSensitiveFrom(NewAbortable(), lock.NewFigure3(n))
}

// NewSensitiveFrom builds Figure 3 over any weak set and any PidLock.
func NewSensitiveFrom(weak Weak, lk lock.PidLock) *Sensitive {
	return &Sensitive{Guarded: core.NewGuarded(lk, nil), weak: weak}
}

// Add inserts k on behalf of pid; it reports whether k was newly
// inserted, never aborts, and terminates for every caller.
func (s *Sensitive) Add(pid int, k uint64) bool {
	added, _ := core.DoOp(s.Guard(), pid, nil, func() (bool, error) { return s.weak.TryAdd(k) })
	return added
}

// Remove deletes k on behalf of pid; it reports whether k was present.
func (s *Sensitive) Remove(pid int, k uint64) bool {
	removed, _ := core.DoOp(s.Guard(), pid, nil, func() (bool, error) { return s.weak.TryRemove(k) })
	return removed
}

// Contains reports membership of k. It goes straight to the weak
// set's wait-free check — no guard, no lock, whatever the contention.
func (s *Sensitive) Contains(_ int, k uint64) bool {
	ok, _ := s.weak.TryContains(k)
	return ok
}

var _ Strong = (*Sensitive)(nil)
