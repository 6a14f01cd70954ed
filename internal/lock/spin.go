package lock

import (
	"runtime"
	"sync/atomic"
)

// SpinBudget is the number of failed probe iterations a spinning lock
// tolerates before yielding the processor. Yielding keeps the spin
// locks live when there are more competing goroutines than GOMAXPROCS
// (the holder must get scheduled to release). core.DoOp's slow path
// paces its in-lock retries by the same budget, and internal/combine's
// waiters their spins (the serving combiner must get scheduled for a
// waiter's request to complete).
const SpinBudget = 64

// TAS is a test-and-set spin lock: a single CAS-able register, the
// simplest deadlock-free lock and the paper's minimal assumption for
// Figure 3 ("this lock is assumed to be deadlock-free but it is not
// required to be starvation-free"). Under contention an unlucky
// process can lose the CAS race forever, so TAS is the canonical
// starvation witness for experiment E10. The zero value is unlocked.
type TAS struct {
	state atomic.Uint32
}

// NewTAS returns an unlocked test-and-set lock.
func NewTAS() *TAS { return &TAS{} }

// Lock acquires the lock, spinning until the CAS wins.
func (l *TAS) Lock() {
	spins := 0
	for !l.state.CompareAndSwap(0, 1) {
		if spins++; spins >= SpinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
}

// Unlock releases the lock.
func (l *TAS) Unlock() { l.state.Store(0) }

// Liveness reports DeadlockFree.
func (l *TAS) Liveness() Liveness { return DeadlockFree }

// TTAS is a test-and-test-and-set spin lock: it probes the register
// with plain reads and attempts the CAS only when it observed the lock
// free, which avoids the cache-line ping-pong of TAS while keeping the
// same (deadlock-free only) liveness. The zero value is unlocked.
type TTAS struct {
	state atomic.Uint32
}

// NewTTAS returns an unlocked test-and-test-and-set lock.
func NewTTAS() *TTAS { return &TTAS{} }

// Lock acquires the lock.
func (l *TTAS) Lock() {
	//contlint:allow retryloop spinning until the CAS wins is the lock algorithm itself (E4's lock tier blocks by design); retry policies apply to weak objects, not locks
	for {
		spins := 0
		for l.state.Load() != 0 {
			if spins++; spins >= SpinBudget {
				spins = 0
				runtime.Gosched()
			}
		}
		if l.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

// Unlock releases the lock.
func (l *TTAS) Unlock() { l.state.Store(0) }

// Liveness reports DeadlockFree.
func (l *TTAS) Liveness() Liveness { return DeadlockFree }

// Backoff is a TTAS lock with bounded exponential backoff after each
// lost CAS: losers progressively yield more, trading fairness for
// reduced contention on the lock word. Still only deadlock-free. The
// zero value is unlocked with the default backoff bounds.
type Backoff struct {
	state atomic.Uint32
	// MaxYields bounds the backoff; 0 means the default (1024).
	MaxYields int
}

// NewBackoff returns an unlocked backoff lock with default bounds.
func NewBackoff() *Backoff { return &Backoff{} }

// Lock acquires the lock.
func (l *Backoff) Lock() {
	max := l.MaxYields
	if max == 0 {
		max = 1024
	}
	backoff := 1
	//contlint:allow retryloop spinning until the CAS wins is the lock algorithm itself; the backoff schedule below is this loop's contention policy
	for {
		spins := 0
		for l.state.Load() != 0 {
			if spins++; spins >= SpinBudget {
				spins = 0
				runtime.Gosched()
			}
		}
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		for i := 0; i < backoff; i++ {
			runtime.Gosched()
		}
		if backoff < max {
			backoff *= 2
		}
	}
}

// Unlock releases the lock.
func (l *Backoff) Unlock() { l.state.Store(0) }

// Liveness reports DeadlockFree.
func (l *Backoff) Liveness() Liveness { return DeadlockFree }
