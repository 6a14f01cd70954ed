package stack

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memory"
)

// elimOffer is a parked push offer in the elimination array. Records
// are immutable; a pop claims an offer by CASing the slot from the
// offer back to nil, so claiming and withdrawing race on the slot
// register, never on the record.
type elimOffer[T any] struct {
	value T
}

// Elimination is a Treiber stack with an elimination-backoff array
// (after Hendler, Shavit & Yerushalmi, SPAA'04): operations that lose
// the CAS race on TOP visit a random slot of a small array where a
// concurrent push and pop can serve each other and vanish without
// touching TOP at all — push(v) immediately followed by pop() → v is
// linearizable with the pair placed back to back at the moment of the
// claim.
//
// It extends the paper's theme: where Figure 3 diverts conflicting
// operations to a lock, elimination diverts *complementary* ones to
// each other; the two compose (an eliminated pair never reaches the
// weak object). The implementation stays lock-free. The inner stack
// recycles its nodes through per-pid pools, so operations take the
// calling pid; only a parked offer is boxed.
type Elimination[T any] struct {
	inner  *Treiber[T]
	slots  []*memory.Ref[elimOffer[T]]
	spins  int
	ticket atomic.Uint64

	pushEliminated atomic.Uint64
	popEliminated  atomic.Uint64
}

// NewElimination returns an elimination stack for procs processes
// (pids in [0, procs)) with `width` exchange slots (0 means 4) and the
// default park time.
func NewElimination[T any](width, procs int) *Elimination[T] {
	if width <= 0 {
		width = 4
	}
	s := &Elimination[T]{
		inner: NewTreiber[T](procs),
		slots: make([]*memory.Ref[elimOffer[T]], width),
		spins: 128,
	}
	for i := range s.slots {
		s.slots[i] = memory.NewRef[elimOffer[T]](nil)
	}
	return s
}

// slot picks an exchange slot; the rotating ticket spreads concurrent
// visitors without per-goroutine state.
func (s *Elimination[T]) slot() *memory.Ref[elimOffer[T]] {
	return s.slots[int(s.ticket.Add(1))%len(s.slots)]
}

// tryEliminatePush parks v in a slot for a bounded time and reports
// whether a pop claimed it.
func (s *Elimination[T]) tryEliminatePush(v T) bool {
	reg := s.slot()
	off := &elimOffer[T]{value: v}
	if !reg.CAS(nil, off) {
		return false // slot busy
	}
	for i := 0; i < s.spins; i++ {
		if reg.Read() != off {
			s.pushEliminated.Add(1)
			return true // claimed
		}
	}
	if reg.CAS(off, nil) {
		return false // withdrew unclaimed
	}
	s.pushEliminated.Add(1)
	return true // claimed at the last moment
}

// tryEliminatePop attempts to claim a parked push offer.
func (s *Elimination[T]) tryEliminatePop() (T, bool) {
	reg := s.slot()
	off := reg.Read()
	if off == nil {
		var zero T
		return zero, false
	}
	if reg.CAS(off, nil) {
		s.popEliminated.Add(1)
		return off.value, true
	}
	var zero T
	return zero, false
}

// Push pushes v on behalf of pid; it always succeeds (unbounded) and
// is lock-free.
func (s *Elimination[T]) Push(pid int, v T) error {
	return core.Retry(nil, func() (error, bool) {
		if err := s.inner.TryPush(pid, v); err != ErrAborted {
			return err, true
		}
		if s.tryEliminatePush(v) {
			return nil, true
		}
		return nil, false
	})
}

// Pop pops the top value on behalf of pid or returns ErrEmpty;
// lock-free.
func (s *Elimination[T]) Pop(pid int) (T, error) {
	type res struct {
		v   T
		err error
	}
	r := core.Retry(nil, func() (res, bool) {
		if v, err := s.inner.TryPop(pid); err != ErrAborted {
			return res{v, err}, true
		}
		if v, ok := s.tryEliminatePop(); ok {
			return res{v: v}, true
		}
		return res{}, false
	})
	return r.v, r.err
}

// EliminationStats reports how many operations were served by the
// elimination array rather than the stack.
type EliminationStats struct {
	PushesEliminated uint64
	PopsEliminated   uint64
}

// Stats returns the elimination counters.
func (s *Elimination[T]) Stats() EliminationStats {
	return EliminationStats{
		PushesEliminated: s.pushEliminated.Load(),
		PopsEliminated:   s.popEliminated.Load(),
	}
}

// Len counts the non-eliminated elements; quiescent states only.
func (s *Elimination[T]) Len() int { return s.inner.Len() }

// Progress reports NonBlocking (elimination adds only bounded work to
// the lock-free retry loop).
func (s *Elimination[T]) Progress() core.Progress { return core.NonBlocking }

var _ Strong[int] = (*Elimination[int])(nil)
