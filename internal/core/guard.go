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
// The lock is a PidLock; pass lock.NewRoundRobin(deadlockFreeLock, n)
// to obtain the paper's exact Figure 3 (starvation-free over a merely
// deadlock-free lock), or lock.IgnorePid(starvationFreeLock) for the
// simplified variant of the §4 Remark.
type Guard struct {
	contention *memory.Flag
	lk         lock.PidLock

	fast    atomic.Uint64 // operations completed on the shortcut
	slow    atomic.Uint64 // operations that took the lock
	retries atomic.Uint64 // weak attempts consumed inside the slow path
}

// NewGuard returns a Guard over lk with an uninstrumented CONTENTION
// register.
func NewGuard(lk lock.PidLock) *Guard {
	return NewGuardObserved(lk, nil)
}

// NewGuardObserved returns a Guard whose CONTENTION register reports
// every access to obs, so that experiment E1 can count the shortcut's
// shared accesses. A nil obs disables instrumentation.
func NewGuardObserved(lk lock.PidLock, obs memory.Observer) *Guard {
	return &Guard{contention: memory.NewFlagObserved(false, obs), lk: lk}
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

// Stats returns a snapshot of the guard's path counters.
func (g *Guard) Stats() GuardStats {
	return GuardStats{Fast: g.fast.Load(), Slow: g.slow.Load(), Retries: g.retries.Load()}
}

// ResetStats zeroes the path counters (between quiescent phases only).
func (g *Guard) ResetStats() {
	g.fast.Store(0)
	g.slow.Store(0)
	g.retries.Store(0)
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
	if !g.contention.Read() { // line 01
		if v, err := try(); !bottom(err, bot) { // line 02
			g.fast.Add(1)
			return v, err
		}
	}
	// Slow path: lines 04-13. Lines 04-06 and 10-12 (the FLAG/TURN
	// round-robin and the underlying lock) live inside the PidLock.
	g.slow.Add(1)
	g.lk.Acquire(pid)        // lines 04-06
	g.contention.Write(true) // line 07
	for {                    // line 08
		g.retries.Add(1)
		v, err := try()
		if !bottom(err, bot) {
			g.contention.Write(false) // line 09
			g.lk.Release(pid)         // lines 10-12
			return v, err
		}
		// A failed attempt means some process is concurrently inside
		// a line-02 shortcut; yield so it can finish (the paper's
		// asynchrony assumption makes this a no-op in the model, but
		// a cooperative scheduler needs it).
		runtime.Gosched()
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

// NewGuarded returns a Guarded over lk whose CONTENTION register
// reports to obs (nil for none).
func NewGuarded(lk lock.PidLock, obs memory.Observer) Guarded {
	return Guarded{NewGuardObserved(lk, obs)}
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
