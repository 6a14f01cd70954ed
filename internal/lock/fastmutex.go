package lock

import (
	"runtime"

	"repro/internal/memory"
)

// FastMutex is Lamport's fast mutual-exclusion algorithm (ACM TOCS
// 1987), the paper's reference [16] and, per its §1.2, "the first
// paper that introduced contention-sensitiveness (without giving it a
// name)": in a contention-free context a process enters the critical
// section after only seven shared-memory accesses (five in the entry
// code, two in the exit code), independent of n. Under contention the
// cost depends on n and the interleaving. The lock is deadlock-free
// but not starvation-free — exactly the progress class Figure 3
// assumes of its underlying lock, so FastMutex composes with
// RoundRobin too.
//
// Registers: X and Y hold process identities (Y additionally the
// sentinel "none"), and B[0..n-1] are announcement flags. The fast
// path is X ← i; (Y = none)?; Y ← i; (X = i)? — two conditional
// writes fenced by two reads, which is what makes the solo cost
// constant.
type FastMutex struct {
	n int
	b []paddedFlag
	x *memory.Word
	y *memory.Word // holds pid+1; 0 means "none"
}

// NewFastMutex returns a fast mutex for n >= 1 processes with
// identities in [0, n).
func NewFastMutex(n int) *FastMutex {
	return NewFastMutexObserved(n, nil)
}

// NewFastMutexObserved returns an instrumented fast mutex whose every
// shared access is reported to obs (nil disables instrumentation);
// experiment E12 uses this to count the seven accesses of §1.2.
func NewFastMutexObserved(n int, obs memory.Observer) *FastMutex {
	if n < 1 {
		panic("lock: FastMutex needs n >= 1")
	}
	l := &FastMutex{
		n: n,
		b: make([]paddedFlag, n),
		x: memory.NewWordObserved(0, obs),
		y: memory.NewWordObserved(0, obs),
	}
	for i := range l.b {
		l.b[i].f.Observe(obs)
	}
	return l
}

// Acquire enters the critical section on behalf of pid.
func (l *FastMutex) Acquire(pid int) {
	if pid < 0 || pid >= l.n {
		panic("lock: FastMutex pid out of range")
	}
	me := uint64(pid + 1)
	for {
		l.b[pid].f.Write(true) // announce
		l.x.Write(me)
		if l.y.Read() != 0 {
			// Someone is past the gate; step back and wait for the
			// critical section to clear, then retry from the top.
			l.b[pid].f.Write(false)
			l.waitYClear()
			continue
		}
		l.y.Write(me)
		if l.x.Read() != me {
			// Contention on the gate: withdraw the announcement, wait
			// for every announced process to settle, and check who
			// won the gate.
			l.b[pid].f.Write(false)
			for j := 0; j < l.n; j++ {
				spins := 0
				for l.b[j].f.Read() {
					if spins++; spins >= SpinBudget {
						spins = 0
						runtime.Gosched()
					}
				}
			}
			if l.y.Read() != me {
				// Someone else won; wait for the section to clear and
				// retry.
				l.waitYClear()
				continue
			}
		}
		return // fast path: 5 entry accesses when uncontended
	}
}

// Release leaves the critical section on behalf of pid (two shared
// accesses, completing the seven of §1.2).
func (l *FastMutex) Release(pid int) {
	l.y.Write(0)
	l.b[pid].f.Write(false)
}

func (l *FastMutex) waitYClear() {
	spins := 0
	for l.y.Read() != 0 {
		if spins++; spins >= SpinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
}

// Liveness reports DeadlockFree: under contention a process can lose
// the X/Y race forever (Lamport's algorithm trades fairness for the
// constant fast path).
func (l *FastMutex) Liveness() Liveness { return DeadlockFree }

var _ PidLock = (*FastMutex)(nil)
