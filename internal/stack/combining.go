package stack

import (
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/memory"
)

// combOp is one published stack request: push (with the value) or pop.
type combOp[T any] struct {
	push bool
	v    T
}

// combRes is a served request's outcome: the popped value (pop only)
// and the sentinel error (nil, ErrFull, or ErrEmpty — never
// ErrAborted).
type combRes[T any] struct {
	v   T
	err error
}

// Combining is the flat-combining stack: the Figure 3 interface and
// fast path with a batched contended path. Solo operations still
// complete on the six-access lock-free shortcut; operations whose
// shortcut attempts keep aborting publish their request and one
// combiner serves the whole batch under a single combiner-lock
// acquisition, instead of every process taking the slow-path lock in
// turn. See internal/combine.
type Combining[T any] struct {
	// weak makes the single attempts, taking the pid of the executing
	// process (the caller on the fast path, the combiner when serving
	// the publication list) so the weak stack recycles through per-pid
	// free lists.
	weak Weak[T]
	core *combine.Core[combOp[T], combRes[T]]
}

// NewCombining returns a flat-combining stack of capacity k for n
// processes (pids in [0, n)) over the paper's Figure 1 weak stack. The
// whole strong path — fast-path attempt, published request, combiner
// service — runs allocation-free (experiment E17).
func NewCombining[T any](k, n int) *Combining[T] {
	return newCombining[T](NewAbortable[T](k, n), n, nil)
}

// NewCombiningFrom builds the flat-combining construction over any
// weak stack for n processes.
func NewCombiningFrom[T any](weak Weak[T], n int) *Combining[T] {
	return newCombining(weak, n, nil)
}

// NewCombiningObserved returns a flat-combining stack of capacity k
// for n processes over the observed Figure 1 weak stack, with the
// combiner lease, heartbeat and CONTENTION observed too: under
// internal/sched's controller the whole contended path — publication,
// combining, crash, takeover — becomes deterministically schedulable.
func NewCombiningObserved(k, n int, obs memory.Observer) *Combining[uint64] {
	return newCombining[uint64](NewAbortableObserved[uint64](k, n, obs), n, obs)
}

// newCombining is the one constructor: the construction over weak for
// n processes, with the combining core observed by obs (nil disables
// instrumentation).
func newCombining[T any](weak Weak[T], n int, obs memory.Observer) *Combining[T] {
	s := &Combining[T]{weak: weak}
	s.core = combine.NewCoreObserved[combOp[T], combRes[T]](n, s.attempt, obs)
	return s
}

// attempt adapts the weak stack to combine.Core's try shape: one weak
// attempt by pid, ok=false iff it aborted.
func (s *Combining[T]) attempt(pid int, op combOp[T]) (combRes[T], bool) {
	if op.push {
		err := s.weak.TryPush(pid, op.v)
		return combRes[T]{err: err}, err != ErrAborted
	}
	v, err := s.weak.TryPop(pid)
	return combRes[T]{v: v, err: err}, err != ErrAborted
}

// Push pushes v on behalf of pid; it returns nil or ErrFull and never
// aborts.
func (s *Combining[T]) Push(pid int, v T) error {
	return s.core.Do(pid, combOp[T]{push: true, v: v}).err
}

// Pop pops the top value on behalf of pid; it returns the value or
// ErrEmpty and never aborts.
func (s *Combining[T]) Pop(pid int) (T, error) {
	r := s.core.Do(pid, combOp[T]{})
	return r.v, r.err
}

// PushContended pushes v entirely on the contended path: the request
// is published without attempting the lock-free shortcut. Benchmarks
// (E15) use it to isolate the batched fallback.
func (s *Combining[T]) PushContended(pid int, v T) error {
	return s.core.DoContended(pid, combOp[T]{push: true, v: v}).err
}

// PopContended pops entirely on the contended path; see PushContended.
func (s *Combining[T]) PopContended(pid int) (T, error) {
	r := s.core.DoContended(pid, combOp[T]{})
	return r.v, r.err
}

// Len returns the weak backend's length when it exposes one
// (quiescent states only), -1 otherwise.
func (s *Combining[T]) Len() int {
	if w, ok := s.weak.(interface{ Len() int }); ok {
		return w.Len()
	}
	return -1
}

// Snapshot returns the weak backend's elements bottom-first when it
// exposes a snapshot, nil otherwise. Quiescent states only — the
// adaptive tier calls it on a quiesced source to rebuild the migration
// target.
func (s *Combining[T]) Snapshot() []T {
	if w, ok := s.weak.(interface{ Snapshot() []T }); ok {
		return w.Snapshot()
	}
	return nil
}

// AbandonPush publishes a push request that will never be collected —
// the scenario layer's model of a process crashing mid-push: the
// request is pending and a combiner may or may not serve it. pid must
// never operate on this stack again.
func (s *Combining[T]) AbandonPush(pid int, v T) {
	s.core.Publish(pid, combOp[T]{push: true, v: v})
}

// AbandonPop is AbandonPush for a pop request.
func (s *Combining[T]) AbandonPop(pid int) {
	s.core.Publish(pid, combOp[T]{})
}

// ArmCombinerCrash arms the combine.Core fault injection: pid's next
// combining pass dies after `after` slot applications with the lease
// held. See combine.Core.ArmCombinerCrash.
func (s *Combining[T]) ArmCombinerCrash(pid, after int) bool {
	return s.core.ArmCombinerCrash(pid, after)
}

// SetLeaseBudget forwards to combine.Core.SetLeaseBudget (tests).
func (s *Combining[T]) SetLeaseBudget(n int) { s.core.SetLeaseBudget(n) }

// Stats exposes the fast-path and combining counters.
func (s *Combining[T]) Stats() combine.Stats { return s.core.Stats() }

// ResetStats zeroes the counters (between quiescent phases only).
func (s *Combining[T]) ResetStats() { s.core.ResetStats() }

// Progress reports StarvationFree: every published request is served
// by the current or next combining pass (internal/combine's liveness
// argument).
func (s *Combining[T]) Progress() core.Progress { return core.StarvationFree }

var _ Strong[int] = (*Combining[int])(nil)
