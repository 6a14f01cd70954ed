package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// exercise runs procs goroutines each performing iters critical
// sections guarded by the given PidLock, and fails the test if two
// processes are ever inside simultaneously or increments are lost.
func exercise(t *testing.T, l PidLock, procs, iters int) {
	t.Helper()
	var inCS atomic.Int32
	counter := 0 // unsynchronized on purpose: protected by l
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Acquire(pid)
				if got := inCS.Add(1); got != 1 {
					t.Errorf("mutual exclusion violated: %d processes in CS", got)
				}
				counter++
				inCS.Add(-1)
				l.Release(pid)
			}
		}(p)
	}
	wg.Wait()
	if counter != procs*iters {
		t.Fatalf("lost updates: counter = %d, want %d", counter, procs*iters)
	}
}

func TestMutualExclusion(t *testing.T) {
	const procs, iters = 8, 3000
	cases := []struct {
		name string
		l    PidLock
	}{
		{"TAS", IgnorePid(NewTAS())},
		{"TTAS", IgnorePid(NewTTAS())},
		{"Backoff", IgnorePid(NewBackoff())},
		{"Ticket", IgnorePid(NewTicket())},
		{"Mutex", IgnorePid(NewMutex())},
		{"Tournament", NewTournament(procs)},
		{"RoundRobin(TAS)", NewRoundRobin(NewTAS(), procs)},
		{"RoundRobin(TTAS)", NewRoundRobin(NewTTAS(), procs)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			exercise(t, tc.l, procs, iters)
		})
	}
}

func TestPetersonMutualExclusion(t *testing.T) {
	exercise(t, NewPeterson(), 2, 20000)
}

func TestPetersonRejectsBadPid(t *testing.T) {
	l := NewPeterson()
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire(2) did not panic")
		}
	}()
	l.Acquire(2)
}

func TestTournamentSingleProcess(t *testing.T) {
	l := NewTournament(1)
	l.Acquire(0)
	l.Release(0)
	l.Acquire(0)
	l.Release(0)
}

func TestTournamentOddN(t *testing.T) {
	// n not a power of two exercises the rounded tree.
	exercise(t, NewTournament(5), 5, 2000)
}

func TestTournamentRejectsBadPid(t *testing.T) {
	l := NewTournament(3)
	for _, pid := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Acquire(%d) did not panic", pid)
				}
			}()
			l.Acquire(pid)
		}()
	}
}

func TestRoundRobinAdvancesTurn(t *testing.T) {
	l := NewRoundRobin(NewTAS(), 3)
	if l.Turn() != 0 {
		t.Fatalf("initial TURN = %d, want 0", l.Turn())
	}
	// A solo acquire/release advances TURN (the prioritized process is
	// not competing).
	l.Acquire(1)
	l.Release(1)
	if l.Turn() != 1 {
		t.Fatalf("TURN after one cycle = %d, want 1", l.Turn())
	}
	l.Acquire(2)
	l.Release(2)
	l.Acquire(0)
	l.Release(0)
	if l.Turn() != 0 {
		t.Fatalf("TURN does not wrap round-robin: %d", l.Turn())
	}
}

func TestRoundRobinHoldsTurnForCompetitor(t *testing.T) {
	// If the prioritized process is competing, TURN must not advance
	// past it (this is what Lemma 3 relies on).
	l := NewRoundRobin(NewTAS(), 2)
	// Simulate p0 competing: raise its flag by taking the slow path on
	// another goroutine that blocks inside the inner lock.
	l.Acquire(0) // p0 holds the lock; FLAG[0] is up
	done := make(chan struct{})
	go func() {
		l.Acquire(1)
		l.Release(1)
		close(done)
	}()
	// p1 may or may not pass line 05 yet; release p0 and re-acquire.
	l.Release(0)
	<-done
	// After p1's release with nobody competing, TURN advanced at least
	// once; it must always stay in range.
	if turn := l.Turn(); turn < 0 || turn >= 2 {
		t.Fatalf("TURN out of range: %d", turn)
	}
}

func TestRoundRobinRejectsBadPid(t *testing.T) {
	l := NewRoundRobin(NewTAS(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire(5) did not panic")
		}
	}()
	l.Acquire(5)
}

func TestConstructorsRejectBadN(t *testing.T) {
	for name, f := range map[string]func(){
		"RoundRobin": func() { NewRoundRobin(NewTAS(), 0) },
		"Tournament": func() { NewTournament(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with n=0 did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLivenessLabels(t *testing.T) {
	cases := []struct {
		l    LivenessInfo
		want Liveness
	}{
		{NewTAS(), DeadlockFree},
		{NewTTAS(), DeadlockFree},
		{NewBackoff(), DeadlockFree},
		{NewTicket(), StarvationFree},
		{NewMutex(), StarvationFree},
		{NewPeterson(), StarvationFree},
		{NewTournament(4), StarvationFree},
		{NewRoundRobin(NewTAS(), 4), StarvationFree},
	}
	for _, tc := range cases {
		if got := tc.l.Liveness(); got != tc.want {
			t.Errorf("%T.Liveness() = %v, want %v", tc.l, got, tc.want)
		}
	}
}

func TestLivenessString(t *testing.T) {
	if DeadlockFree.String() != "deadlock-free" ||
		StarvationFree.String() != "starvation-free" ||
		Liveness(9).String() != "unknown" {
		t.Fatal("Liveness.String mismatch")
	}
}

func TestAdaptersRoundTrip(t *testing.T) {
	// Bind(IgnorePid(l), pid) must behave as l.
	inner := NewTicket()
	l := Bind(IgnorePid(inner), 3)
	l.Lock()
	locked := make(chan bool, 1)
	go func() {
		inner.Lock()
		locked <- true
		inner.Unlock()
	}()
	select {
	case <-locked:
		t.Fatal("inner lock acquired while bound lock held")
	default:
	}
	l.Unlock()
	if !<-locked {
		t.Fatal("inner lock never acquired after unlock")
	}
}

func TestTicketFIFOUnderContention(t *testing.T) {
	// Ticket order is FIFO: with two alternating processes each should
	// complete a similar number of sections. This is a smoke test of
	// fairness, not a proof; E10 quantifies it.
	l := NewTicket()
	const iters = 5000
	var counts [2]atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock()
				counts[pid].Add(1)
				l.Unlock()
			}
		}(p)
	}
	// Start barrier: the window opens only once both workers have
	// completed a section, so both are in their loops; before that one
	// worker can run alone while the other waits for a core, which says
	// nothing about the lock. The waits yield so that on a machine with
	// few cores they never hold a core a worker needs.
	for counts[0].Load() == 0 || counts[1].Load() == 0 {
		runtime.Gosched()
	}
	a0, b0 := counts[0].Load(), counts[1].Load()
	// Let them run until one side has done iters sections in the window.
	for counts[0].Load()-a0 < iters && counts[1].Load()-b0 < iters {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	a, b := counts[0].Load()-a0, counts[1].Load()-b0
	if a == 0 || b == 0 {
		t.Fatalf("one process starved: counts = %d, %d", a, b)
	}
}
