package stack

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
)

// stressN scales a stress-test iteration budget: the full budget by
// default, a twentieth (min 100) under -short so `go test -short`
// finishes fast (the CI race job runs short; full budgets remain the
// local default).
func stressN(full int) int {
	if testing.Short() {
		if full /= 20; full < 100 {
			full = 100
		}
	}
	return full
}

// conserved drives producers and consumers against pid-aware push/pop
// functions and verifies multiset conservation: every value pushed is
// popped or left on the stack, exactly once.
func conserved(t *testing.T, procs, perProc int,
	push func(pid int, v uint64) error,
	pop func(pid int) (uint64, error),
	drain func() []uint64,
) {
	t.Helper()
	var wg sync.WaitGroup
	popped := make([][]uint64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				v := uint64(pid)<<32 | uint64(i)
				for {
					err := push(pid, v)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrFull) {
						t.Errorf("push = %v", err)
						return
					}
					// Full: pop one to make room.
					if got, err := pop(pid); err == nil {
						popped[pid] = append(popped[pid], got)
					}
				}
				if i%3 == 0 {
					if got, err := pop(pid); err == nil {
						popped[pid] = append(popped[pid], got)
					}
				}
			}
		}(p)
	}
	wg.Wait()

	seen := make(map[uint64]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range drain() {
		seen[v]++
	}
	if len(seen) != procs*perProc {
		t.Fatalf("value set size = %d, want %d (lost values)", len(seen), procs*perProc)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x observed %d times (duplicated)", v, n)
		}
	}
}

func TestSensitiveConserves(t *testing.T) {
	procs, perProc, k := 8, stressN(2000), 64
	s := NewSensitive[uint64](k, procs)
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
	st := s.Guard().Stats()
	if st.Fast+st.Slow == 0 {
		t.Fatal("guard saw no operations")
	}
}

func TestSensitiveWithStarvationFreeLockConserves(t *testing.T) {
	// The §4 Remark variant: a starvation-free lock, no FLAG/TURN.
	procs, perProc, k := 6, stressN(1500), 32
	s := NewSensitiveFrom[uint64](NewAbortable[uint64](k, procs), procs, lock.IgnorePid(lock.NewTicket()), nil)
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
}

func TestNonBlockingConserves(t *testing.T) {
	procs, perProc, k := 8, stressN(2000), 64
	s := NewNonBlocking[uint64](k, procs)
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
}

func TestNonBlockingPackedConserves(t *testing.T) {
	// The packed backend under the Figure 2 construction. Values must
	// fit 32 bits, so shrink the id encoding.
	procs, perProc, k := 4, stressN(1500), 32
	s := NewNonBlockingFrom[uint32](NewPacked(k), nil)
	var wg sync.WaitGroup
	popped := make([][]uint32, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				v := uint32(pid)<<24 | uint32(i)
				for {
					err := s.Push(pid, v)
					if err == nil {
						break
					}
					if got, err := s.Pop(pid); err == nil {
						popped[pid] = append(popped[pid], got)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[uint32]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for {
		v, err := s.Pop(0)
		if err != nil {
			break
		}
		seen[v]++
	}
	if len(seen) != procs*perProc {
		t.Fatalf("value set size = %d, want %d", len(seen), procs*perProc)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x observed %d times", v, n)
		}
	}
}

func TestTreiberConserves(t *testing.T) {
	procs, perProc := 8, stressN(3000)
	s := NewTreiber[uint64](procs)
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
}

func TestLockBasedConserves(t *testing.T) {
	procs, perProc, k := 8, stressN(2000), 64
	s := NewLockBasedWith[uint64](k, lock.NewRoundRobin(lock.NewTAS(), procs))
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
}

func TestSensitiveFastPathDominatesWhenSolo(t *testing.T) {
	s := NewSensitive[int](16, 4)
	for i := 0; i < 1000; i++ {
		if err := s.Push(0, i%10); err != nil && !errors.Is(err, ErrFull) {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := s.Pop(0); err != nil && !errors.Is(err, ErrEmpty) {
				t.Fatal(err)
			}
		}
	}
	st := s.Guard().Stats()
	if st.Slow != 0 {
		t.Fatalf("solo run took the slow path %d times", st.Slow)
	}
}

func TestNonBlockingCountedReportsAborts(t *testing.T) {
	procs, perProc, k := 8, stressN(1000), 8
	s := NewNonBlocking[uint64](k, procs)
	var wg sync.WaitGroup
	var totalAborts int64
	var mu sync.Mutex
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < perProc; i++ {
				_, a := s.PushCounted(pid, uint64(i))
				local += int64(a)
				_, _, a2 := s.PopCounted(pid)
				local += int64(a2)
			}
			mu.Lock()
			totalAborts += local
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	// With 8 procs hammering a tiny stack there must be interference.
	if totalAborts == 0 {
		t.Log("warning: no aborts observed (machine too serial?); counts still consistent")
	}
}

// TestSensitiveOversubscribedConserves runs four workers per P on the
// Figure 3 stack, so slow-path holders routinely wait on descheduled
// shortcut operations: DoOp's budgeted yield must let those run, and
// every value must still be popped or left exactly once. CI runs it at
// -cpu 1,2.
func TestSensitiveOversubscribedConserves(t *testing.T) {
	procs, perProc, k := 4*runtime.GOMAXPROCS(0), stressN(2000), 64
	s := NewSensitive[uint64](k, procs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conserved(t, procs, perProc, s.Push, s.Pop, func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d workers x %d ops not done after 30s at GOMAXPROCS %d", procs, perProc, runtime.GOMAXPROCS(0))
	}
}
