package lock

import (
	"runtime"

	"repro/internal/memory"
)

// paddedFlag keeps each process's FLAG register on its own cache line
// so that spinning on FLAG[TURN] does not invalidate the lines of the
// other processes' flags.
type paddedFlag struct {
	f memory.Flag
	_ [40]byte
}

// RoundRobin is the paper's §4.4 transformation: it builds a
// starvation-free lock for n known processes out of any deadlock-free
// lock, using the starred lines of Figure 3.
//
// Acquire(pid) is lines 04-06: raise FLAG[pid], wait until either it is
// pid's turn or the prioritized process is not competing, then take the
// inner lock. Release(pid) is lines 10-12: lower FLAG[pid], advance
// TURN round-robin if the prioritized process is not competing, then
// release the inner lock. Lemma 3 of the paper proves every acquirer
// eventually succeeds: TURN visits every identity and while TURN = i
// with FLAG[i] raised, no later arrival can pass the line-05 wait, so
// the set of processes competing against p_i only shrinks, and
// deadlock-freedom of the inner lock hands the lock to p_i.
//
// The transformation costs 3 extra shared accesses on an uncontended
// Acquire (write FLAG, read TURN, read FLAG[TURN] — or one fewer when
// TURN = pid) and 3-4 on Release; experiment E10 measures the price
// against the fairness gained.
type RoundRobin struct {
	inner Lock
	n     int
	flag  []paddedFlag
	turn  memory.Word
}

// NewRoundRobin wraps the deadlock-free lock inner for n processes with
// identities in [0, n). Wrapping an already starvation-free lock is
// harmless but pointless (the paper's §4 Remark).
func NewRoundRobin(inner Lock, n int) *RoundRobin {
	if n < 1 {
		panic("lock: RoundRobin needs n >= 1")
	}
	return &RoundRobin{inner: inner, n: n, flag: make([]paddedFlag, n)}
}

// NewFigure3 returns the slow-path lock of the paper's Figure 3 for n
// processes: the round-robin transformation over a test-and-test-and-
// set lock, which is deadlock-free only, as the paper assumes, and is
// made starvation-free by the FLAG/TURN lines (§4.4). Every Sensitive
// shell builds its lock here. The inner lock is TTAS rather than TAS
// because TTAS waiters spin on reads of a shared line instead of
// failing CASes that take it exclusive, which contended Figure 3
// objects measured as faster (EXPERIMENTS E19).
func NewFigure3(n int) *RoundRobin { return NewRoundRobin(NewTTAS(), n) }

// N returns the number of processes the lock was built for.
func (l *RoundRobin) N() int { return l.n }

// Acquire enters the critical section on behalf of pid (lines 04-06 of
// Figure 3).
func (l *RoundRobin) Acquire(pid int) {
	l.checkPid(pid)
	l.flag[pid].f.Write(true) // line 04
	spins := 0
	for { // line 05: wait (TURN = i) ∨ ¬FLAG[TURN]
		t := int(l.turn.Read())
		if t == pid || !l.flag[t].f.Read() {
			break
		}
		if spins++; spins >= SpinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
	l.inner.Lock() // line 06
}

// Release leaves the critical section on behalf of pid (lines 10-12 of
// Figure 3).
func (l *RoundRobin) Release(pid int) {
	l.checkPid(pid)
	l.flag[pid].f.Write(false) // line 10
	// line 11: advance priority if its holder is not competing. Only
	// the lock holder executes this, so the read-then-write on TURN is
	// race-free.
	if t := int(l.turn.Read()); !l.flag[t].f.Read() {
		l.turn.Write(uint64((t + 1) % l.n))
	}
	l.inner.Unlock() // line 12
}

// Turn exposes the current TURN value for tests and experiments.
func (l *RoundRobin) Turn() int { return int(l.turn.Read()) }

// Liveness reports StarvationFree, the point of the transformation.
func (l *RoundRobin) Liveness() Liveness { return StarvationFree }

func (l *RoundRobin) checkPid(pid int) {
	if pid < 0 || pid >= l.n {
		panic("lock: RoundRobin pid out of range")
	}
}
