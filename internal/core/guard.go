package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/memory"
)

// Guard carries the shared state of Figure 3's contention-sensitive
// protocol for one concurrent object: the CONTENTION register and the
// lock protecting the slow path. All strong operations of the object
// (e.g. both push and pop of a stack) must share one Guard, because
// CONTENTION is a per-object signal.
//
// The lock is a PidLock; pass lock.NewFigure3(n) to obtain the paper's
// exact Figure 3 (starvation-free over a merely deadlock-free lock),
// or lock.IgnorePid(starvationFreeLock) for the simplified variant of
// the §4 Remark.
//
// The path counters are exact at quiescence (Stats); Slow is their one
// read that is safe under load.
//
// Every field is read-only after construction, so the words every
// operation reads never share a line with a word an operation writes:
// the path counters live in slots, one per pid, in an allocation of
// their own.
type Guard struct {
	contention *memory.Flag
	lk         lock.PidLock
	slots      []guardSlot // pid's counters are slots[pid]
}

// guardSlot holds one pid's path counters, and only that pid writes
// them. fast, bumped on every shortcut success, is a plain word: an
// owner's uncontended atomic add costs four times a plain increment,
// and no one needs it live. slow and retries, bumped only on the slow
// path, stay atomic, so Slow can sum them under load. The blank pads
// keep the counters at least 64 B from any other word — the
// neighbouring slots', and whatever shares the allocation's first and
// last lines — at any allocation offset.
type guardSlot struct {
	_       [56]byte
	fast    uint64        // operations completed on the shortcut
	slow    atomic.Uint64 // operations that took the lock
	retries atomic.Uint64 // weak attempts consumed inside the slow path
	_       [56]byte
}

// NewGuard returns a Guard over lk for n processes (pids in [0, n))
// with an uninstrumented CONTENTION register.
func NewGuard(n int, lk lock.PidLock) *Guard {
	return NewGuardObserved(n, lk, nil)
}

// NewGuardObserved returns a Guard for n processes whose CONTENTION
// register reports every access to obs, so that experiment E1 can
// count the shortcut's shared accesses. A nil obs disables
// instrumentation. The guard keeps one counter slot per process, so a
// pid outside [0, n) panics instead of writing another pid's slot.
func NewGuardObserved(n int, lk lock.PidLock, obs memory.Observer) *Guard {
	if n < 1 {
		panic("core: guard process count must be >= 1")
	}
	return &Guard{contention: memory.NewFlagObserved(false, obs), lk: lk, slots: make([]guardSlot, n)}
}

// GuardStats is a snapshot of a Guard's path counters.
type GuardStats struct {
	// Fast is the number of operations completed on the lock-free
	// shortcut (line 02 success).
	Fast uint64
	// Slow is the number of operations that entered the lock-based
	// slow path.
	Slow uint64
	// Retries is the total number of weak attempts consumed inside
	// the slow path's line-08 loop (at least one per slow operation).
	Retries uint64
}

// Stats returns the guard's path counters summed over every slot, at
// quiescence only: it reads the owner-written Fast words plainly, so
// it must not run concurrently with an operation. Under load, read
// Slow instead.
func (g *Guard) Stats() GuardStats {
	var st GuardStats
	for i := range g.slots {
		s := &g.slots[i]
		st.Fast += s.fast
		st.Slow += s.slow.Load()
		st.Retries += s.retries.Load()
	}
	return st
}

// Slow returns the number of operations that entered the slow path,
// summed over every slot. It is safe under load: each term is a lower
// bound of its value at return, and Slow never decreases between
// calls.
func (g *Guard) Slow() uint64 {
	var n uint64
	for i := range g.slots {
		n += g.slots[i].slow.Load()
	}
	return n
}

// ResetStats zeroes every slot's counters (between quiescent phases
// only).
func (g *Guard) ResetStats() {
	for i := range g.slots {
		s := &g.slots[i]
		s.fast = 0
		s.slow.Store(0)
		s.retries.Store(0)
	}
}

// Do runs one strong operation according to Figure 3 over a comma-ok
// weak attempt: it is DoOp with ok=false as ⊥. pid is the calling
// process identity, forwarded to the slow-path lock.
func Do[R any](g *Guard, pid int, try func() (R, bool)) R {
	res, _ := DoOp(g, pid, errBottom, commaOK[R](try).attempt)
	return res
}

// DoOp runs one strong operation according to Figure 3. try is the
// weak operation (line 02/08's weak_push_or_pop) in the objects' own
// (value, error) shape: a single attempt whose error equals bot to
// report ⊥ (see RetryOp). It returns the first non-⊥ result.
//
// Contention-free cost: 1 shared read of CONTENTION plus the accesses
// of one successful weak attempt — six in total for the paper's stack
// (Theorem 1) — and no lock.
func DoOp[V any](g *Guard, pid int, bot error, try func() (V, error)) (V, error) {
	slot := &g.slots[pid]
	if !g.contention.Read() { // line 01
		if v, err := try(); !bottom(err, bot) { // line 02
			slot.fast++
			return v, err
		}
	}
	// Slow path: lines 04-13. Lines 04-06 and 10-12 (the FLAG/TURN
	// round-robin and the underlying lock) live inside the PidLock.
	slot.slow.Add(1)
	g.lk.Acquire(pid)        // lines 04-06
	g.contention.Write(true) // line 07
	// Line 08: retry the weak operation until it is not ⊥.
	for tries := uint64(1); ; tries++ {
		v, err := try()
		if !bottom(err, bot) {
			g.contention.Write(false) // line 09
			g.lk.Release(pid)         // lines 10-12
			slot.retries.Add(tries)
			return v, err
		}
		// A failed attempt means some process is concurrently inside
		// a line-02 shortcut. The paper's asynchrony assumption lets
		// it finish; a cooperative scheduler may have descheduled it,
		// so yield every lock.SpinBudget failures, as the spin locks
		// do, to let it run when goroutines outnumber processors.
		if tries%lock.SpinBudget == 0 {
			runtime.Gosched()
		}
	}
}

// LockProgress is the progress condition an object inherits from the
// lock that serializes its contended operations: StarvationFree over
// a starvation-free lock (lock.RoundRobin, a ticket lock, ...),
// NonBlocking over a merely deadlock-free one.
func LockProgress(lk lock.PidLock) Progress {
	if li, ok := lk.(lock.LivenessInfo); ok && li.Liveness() == lock.StarvationFree {
		return StarvationFree
	}
	return NonBlocking
}

// Guarded is embedded by every Figure 3 shell: it owns the object's
// Guard, shared by all of the object's strong operations.
type Guarded struct{ g *Guard }

// NewGuarded returns a Guarded over lk for n processes whose
// CONTENTION register reports to obs (nil for none).
func NewGuarded(n int, lk lock.PidLock, obs memory.Observer) Guarded {
	return Guarded{NewGuardObserved(n, lk, obs)}
}

// Guard exposes the guard's fast/slow-path counters for tests and
// experiments.
func (s Guarded) Guard() *Guard { return s.g }

// Progress reports StarvationFree (Theorem 1) when the guard's lock
// is starvation-free — lock.RoundRobin over a deadlock-free lock, or
// a starvation-free lock itself — and NonBlocking otherwise.
func (s Guarded) Progress() Progress { return LockProgress(s.g.lk) }

// Snapshot forwards to weak's quiescent Snapshot when it has one and
// returns nil otherwise; the shells expose it for the adaptive tier's
// migrations.
func Snapshot[T any](weak any) []T {
	if w, ok := weak.(interface{ Snapshot() []T }); ok {
		return w.Snapshot()
	}
	return nil
}

// Len forwards to weak's quiescent Len when it has one and returns -1
// otherwise.
func Len(weak any) int {
	if w, ok := weak.(interface{ Len() int }); ok {
		return w.Len()
	}
	return -1
}
