package set

import (
	"repro/internal/combine"
	"repro/internal/core"
)

// setOpKind selects a published set operation.
type setOpKind uint8

const (
	opAdd setOpKind = iota
	opRemove
	opContains
)

// setOp is one published set request.
type setOp struct {
	kind setOpKind
	key  uint64
}

// Combining is the flat-combining set: the same interface and
// lock-free fast path as Sensitive, with the contended path batched —
// operations whose shortcut attempts keep aborting publish their
// request and one combiner serves the whole batch per lock acquisition (see
// internal/combine). Because the weak backend's updates all CAS one
// root register, batching is particularly effective here: a combining
// pass applies its whole batch without ever losing a CAS.
type Combining struct {
	weak Weak
	core *combine.Core[setOp, bool]
}

// NewCombining returns a flat-combining set for n processes (pids in
// [0, n)) over a fresh abortable copy-on-write set.
func NewCombining(n int) *Combining {
	return NewCombiningFrom(NewAbortable(), n)
}

// NewCombiningFrom builds the flat-combining construction over any
// weak set for n processes.
func NewCombiningFrom(weak Weak, n int) *Combining {
	s := &Combining{weak: weak}
	s.core = combine.NewCore[setOp, bool](n, s.attempt)
	return s
}

// attempt adapts the weak set to combine.Core's try shape: one weak
// attempt by the executing process, ok=false iff it aborted.
func (s *Combining) attempt(_ int, op setOp) (bool, bool) {
	var res bool
	var err error
	switch op.kind {
	case opAdd:
		res, err = s.weak.TryAdd(op.key)
	case opRemove:
		res, err = s.weak.TryRemove(op.key)
	default:
		res, err = s.weak.TryContains(op.key)
	}
	return res, err == nil
}

// Add inserts k on behalf of pid; it reports whether k was newly
// inserted and never aborts.
func (s *Combining) Add(pid int, k uint64) bool {
	return s.core.Do(pid, setOp{kind: opAdd, key: k})
}

// Remove deletes k on behalf of pid; it reports whether k was present.
func (s *Combining) Remove(pid int, k uint64) bool {
	return s.core.Do(pid, setOp{kind: opRemove, key: k})
}

// Contains reports membership of k. The weak check never aborts, so
// solo and contended callers alike complete it on the fast path unless
// a combiner holds CONTENTION up — in which case the read is served,
// batched, by the combiner.
func (s *Combining) Contains(pid int, k uint64) bool {
	return s.core.Do(pid, setOp{kind: opContains, key: k})
}

// AddContended / RemoveContended / ContainsContended run entirely on
// the contended path (publish, no fast-path attempt); benchmarks use
// them to isolate the batched fallback, as E15 does for the stack.
func (s *Combining) AddContended(pid int, k uint64) bool {
	return s.core.DoContended(pid, setOp{kind: opAdd, key: k})
}

// RemoveContended is Remove on the forced contended path.
func (s *Combining) RemoveContended(pid int, k uint64) bool {
	return s.core.DoContended(pid, setOp{kind: opRemove, key: k})
}

// ContainsContended is Contains on the forced contended path.
func (s *Combining) ContainsContended(pid int, k uint64) bool {
	return s.core.DoContended(pid, setOp{kind: opContains, key: k})
}

// AbandonAdd publishes an add request that will never be collected —
// the scenario layer's model of a process crashing mid-add: the
// request is pending and a combiner may or may not serve it. pid must
// never operate on this set again.
func (s *Combining) AbandonAdd(pid int, k uint64) {
	s.core.Publish(pid, setOp{kind: opAdd, key: k})
}

// AbandonRemove is AbandonAdd for a remove request.
func (s *Combining) AbandonRemove(pid int, k uint64) {
	s.core.Publish(pid, setOp{kind: opRemove, key: k})
}

// ArmCombinerCrash arms the combine.Core fault injection: pid's next
// combining pass dies after `after` slot applications with the lease
// held. See combine.Core.ArmCombinerCrash.
func (s *Combining) ArmCombinerCrash(pid, after int) bool {
	return s.core.ArmCombinerCrash(pid, after)
}

// SetLeaseBudget forwards to combine.Core.SetLeaseBudget (tests).
func (s *Combining) SetLeaseBudget(n int) { s.core.SetLeaseBudget(n) }

// Stats exposes the fast-path and combining counters.
func (s *Combining) Stats() combine.Stats { return s.core.Stats() }

// ResetStats zeroes the counters (between quiescent phases only).
func (s *Combining) ResetStats() { s.core.ResetStats() }

// Progress reports StarvationFree: every published request is served
// by the current or next combining pass.
func (s *Combining) Progress() core.Progress { return core.StarvationFree }

var _ Strong = (*Combining)(nil)
