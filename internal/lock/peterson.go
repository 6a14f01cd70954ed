package lock

import (
	"math/bits"
	"runtime"

	"repro/internal/memory"
)

// Peterson is Peterson's two-process mutual-exclusion lock built from
// atomic registers only (no CAS), cited by the paper through [17]. It
// is starvation-free for its two processes (bounded bypass of 1).
// Process identities are 0 and 1. The registers are sync/atomic backed,
// which in Go's memory model gives the sequential consistency the
// algorithm requires.
type Peterson struct {
	flag   [2]memory.Flag
	victim memory.Word
}

// NewPeterson returns an unlocked two-process Peterson lock.
func NewPeterson() *Peterson { return &Peterson{} }

// Acquire enters the critical section on behalf of pid (0 or 1).
func (l *Peterson) Acquire(pid int) {
	if pid != 0 && pid != 1 {
		panic("lock: Peterson pid must be 0 or 1")
	}
	other := 1 - pid
	l.flag[pid].Write(true)
	l.victim.Write(uint64(pid))
	spins := 0
	for l.flag[other].Read() && l.victim.Read() == uint64(pid) {
		if spins++; spins >= SpinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
}

// Release leaves the critical section on behalf of pid.
func (l *Peterson) Release(pid int) { l.flag[pid].Write(false) }

// Liveness reports StarvationFree.
func (l *Peterson) Liveness() Liveness { return StarvationFree }

// Tournament is an n-process mutual-exclusion lock assembled as a
// complete binary tournament tree of Peterson locks: a process climbs
// from its leaf to the root, winning a two-process contest at every
// level, and releases top-down. It inherits starvation-freedom from
// Peterson at every node and needs only atomic read/write registers.
// It exists here as the register-only starvation-free baseline: the
// paper's point is that RoundRobin achieves the same liveness over a
// much cheaper deadlock-free lock.
type Tournament struct {
	n     int
	leaf  int // index of the first leaf in the implicit heap
	nodes []Peterson
}

// NewTournament returns a tournament lock for n >= 1 processes with
// identities in [0, n).
func NewTournament(n int) *Tournament {
	if n < 1 {
		panic("lock: Tournament needs n >= 1")
	}
	// Round the leaf count up to a power of two so that the tree is
	// complete; heap node 1 is the root and node leaf+pid is pid's
	// starting position.
	leaves := 1
	if n > 1 {
		leaves = 1 << bits.Len(uint(n-1))
	}
	return &Tournament{n: n, leaf: leaves, nodes: make([]Peterson, 2*leaves)}
}

// N returns the number of processes the lock was built for.
func (l *Tournament) N() int { return l.n }

// Acquire enters the critical section on behalf of pid.
func (l *Tournament) Acquire(pid int) {
	l.checkPid(pid)
	for node := l.leaf + pid; node > 1; node >>= 1 {
		//contlint:allow pidflow the tournament translates pid into a per-node side (0/1); this is the identity boundary where the global pid becomes a local one
		l.nodes[node>>1].Acquire(node & 1)
	}
}

// Release leaves the critical section on behalf of pid, unwinding the
// tournament from the root down (the reverse of the acquisition path).
func (l *Tournament) Release(pid int) {
	l.checkPid(pid)
	var path [64]int
	depth := 0
	for node := l.leaf + pid; node > 1; node >>= 1 {
		path[depth] = node
		depth++
	}
	for i := depth - 1; i >= 0; i-- {
		node := path[i]
		//contlint:allow pidflow the tournament translates pid into a per-node side (0/1); this is the identity boundary where the global pid becomes a local one
		l.nodes[node>>1].Release(node & 1)
	}
}

// Liveness reports StarvationFree.
func (l *Tournament) Liveness() Liveness { return StarvationFree }

func (l *Tournament) checkPid(pid int) {
	if pid < 0 || pid >= l.n {
		panic("lock: Tournament pid out of range")
	}
}
