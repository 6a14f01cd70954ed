package adaptive

import (
	"repro/internal/core"
	"repro/internal/stack"
)

// Stack is the contention-adaptive stack: the sensitive rung while
// solo traffic dominates (six-access fast path, no batching overhead),
// the flat-combining rung once the slow-path counter says contention
// pays for batching. Both rungs are linearizable and starvation-free,
// and the epoch-gated handoff preserves the LIFO state across morphs.
type Stack[T any] struct {
	*meta[T, container[T]]
}

// NewStack returns an adaptive stack of capacity k for n processes
// governed by t.
func NewStack[T any](k, n int, t Thresholds) *Stack[T] {
	ladder := []step[T, container[T]]{
		{"sensitive", func(pid int, snap []T) container[T] {
			return fill[T](sensStack[T]{stack.NewSensitive[T](k, n)}, pid, snap)
		}},
		{"combining", func(pid int, snap []T) container[T] {
			return fill[T](combStack[T]{stack.NewCombining[T](k, n)}, pid, snap)
		}},
	}
	return &Stack[T]{newMeta(n, t, nil, ladder, t.containerRule)}
}

// Push pushes v on behalf of pid; it returns nil or stack.ErrFull and
// never aborts, whatever rung serves it.
func (s *Stack[T]) Push(pid int, v T) error {
	_, err := s.do(pid, func(c container[T]) (T, error) {
		var zero T
		return zero, c.put(pid, v)
	})
	return err
}

// Pop pops the top value on behalf of pid; it returns the value or
// stack.ErrEmpty and never aborts.
func (s *Stack[T]) Pop(pid int) (T, error) {
	return s.do(pid, func(c container[T]) (T, error) { return c.take(pid) })
}

// Progress reports StarvationFree: every rung of the ladder is.
func (s *Stack[T]) Progress() core.Progress { return core.StarvationFree }

// sensStack adapts the sensitive rung; contention is the guard's
// slow-path counter (the E15 crossover signal).
type sensStack[T any] struct{ s *stack.Sensitive[T] }

func (a sensStack[T]) put(pid int, v T) error  { return a.s.Push(pid, v) }
func (a sensStack[T]) take(pid int) (T, error) { return a.s.Pop(pid) }
func (a sensStack[T]) snapshot() []T           { return a.s.Snapshot() }
func (a sensStack[T]) contended() uint64       { return a.s.Guard().Slow() }
func (a sensStack[T]) inner() any              { return a.s }

// combStack adapts the combining rung; contention is the publication
// counter: requests that used up the shortcut's lock.SpinBudget
// attempts or met a running combiner.
type combStack[T any] struct{ s *stack.Combining[T] }

func (a combStack[T]) put(pid int, v T) error  { return a.s.Push(pid, v) }
func (a combStack[T]) take(pid int) (T, error) { return a.s.Pop(pid) }
func (a combStack[T]) snapshot() []T           { return a.s.Snapshot() }
func (a combStack[T]) contended() uint64       { return a.s.Stats().Published }
func (a combStack[T]) inner() any              { return a.s }

var _ stack.Strong[int] = (*Stack[int])(nil)
