package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ticket is a ticket (bakery-counter) lock: arrivals take strictly
// increasing tickets and are served in ticket order, so the lock is
// starvation-free with FIFO fairness. It is the strong-lock baseline
// against which the paper's RoundRobin transformation is compared
// (experiment E10), and the lock the paper's §4 "Remark" alludes to:
// with a starvation-free lock, Figure 3's FLAG/TURN lines can be
// dropped. The zero value is unlocked.
type Ticket struct {
	next  atomic.Uint64
	owner atomic.Uint64
}

// NewTicket returns an unlocked ticket lock.
func NewTicket() *Ticket { return &Ticket{} }

// Lock draws a ticket and waits until it is served.
func (l *Ticket) Lock() {
	t := l.next.Add(1) - 1
	spins := 0
	for l.owner.Load() != t {
		if spins++; spins >= SpinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
}

// Unlock serves the next ticket.
func (l *Ticket) Unlock() { l.owner.Add(1) }

// Liveness reports StarvationFree.
func (l *Ticket) Liveness() Liveness { return StarvationFree }

// Mutex adapts sync.Mutex to this package's interfaces. Since Go 1.9
// sync.Mutex has a starvation mode that hands the lock to waiters
// blocked for over 1ms, making it starvation-free in practice; it is
// the "what you would actually use" baseline in the experiments. The
// zero value is unlocked.
type Mutex struct {
	mu sync.Mutex
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{} }

// Lock acquires the mutex.
func (l *Mutex) Lock() { l.mu.Lock() }

// Unlock releases the mutex.
func (l *Mutex) Unlock() { l.mu.Unlock() }

// Liveness reports StarvationFree (Go's starvation mode).
func (l *Mutex) Liveness() Liveness { return StarvationFree }
