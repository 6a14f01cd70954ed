package core_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/lock"
	"repro/internal/queue"
	"repro/internal/set"
	"repro/internal/stack"
)

// shell is one Figure 3 shell over Guarded: op runs the shell's i-th
// strong operation for pid, every one of which goes through core.DoOp.
type shell struct {
	name  string
	build func(procs int) (op func(pid, i int), s core.Guarded)
}

// shells are the four kinds' Sensitive shells as their constructors
// build them, over the Figure 3 lock. Even i pushes/adds, odd i pops/
// removes, so no container fills up.
var shells = []shell{
	{"stack", func(procs int) (func(pid, i int), core.Guarded) {
		s := stack.NewSensitive[uint64](1024, procs)
		return func(pid, i int) {
			if i%2 == 0 {
				_ = s.Push(pid, uint64(i))
			} else {
				_, _ = s.Pop(pid)
			}
		}, s.Guarded
	}},
	{"queue", func(procs int) (func(pid, i int), core.Guarded) {
		q := queue.NewSensitive[uint64](1024, procs)
		return func(pid, i int) {
			if i%2 == 0 {
				_ = q.Enqueue(pid, uint64(i))
			} else {
				_, _ = q.Dequeue(pid)
			}
		}, q.Guarded
	}},
	{"deque", func(procs int) (func(pid, i int), core.Guarded) {
		d := deque.NewSensitive(1024, procs)
		return func(pid, i int) {
			if i%2 == 0 {
				_ = d.PushRight(pid, uint32(i))
			} else {
				_, _ = d.PopLeft(pid)
			}
		}, d.Guarded
	}},
	{"set", func(procs int) (func(pid, i int), core.Guarded) {
		s := set.NewSensitive(procs)
		return func(pid, i int) {
			k := uint64(i/2) % 8
			if i%2 == 0 {
				s.Add(pid, k)
			} else {
				s.Remove(pid, k)
			}
		}, s.Guarded
	}},
}

// hammer runs procs workers doing m operations each and returns once
// all of them have finished.
func hammer(procs, m int, op func(pid, i int)) {
	var wg sync.WaitGroup
	for p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range m {
				op(p, i)
			}
		}()
	}
	wg.Wait()
}

// TestSensitiveShellsCountExactly checks the per-pid Guard counters
// against the operations run, on each shell; see countsExactly.
func TestSensitiveShellsCountExactly(t *testing.T) {
	const procs, m = 4, 2000
	for _, sh := range shells {
		t.Run(sh.name, func(t *testing.T) {
			op, s := sh.build(procs)
			if p := s.Progress(); p != core.StarvationFree {
				t.Errorf("Progress = %v, want starvation-free", p)
			}
			countsExactly(t, s.Guard(), procs, m, op)
		})
	}
}

// TestIgnorePidGuardCountsExactly runs countsExactly over the §4
// Remark's shell: a starvation-free ticket lock that ignores the pid.
// Such a lock reports no process count, so the guard's one slot per
// pid comes from the count the constructor is given; every pid must
// get its own, since the Fast words are written without a lock.
func TestIgnorePidGuardCountsExactly(t *testing.T) {
	const procs, m = 4, 2000
	s := stack.NewSensitiveFrom[uint64](stack.NewAbortable[uint64](1024, procs), procs, lock.IgnorePid(lock.NewTicket()), nil)
	countsExactly(t, s.Guard(), procs, m, func(pid, i int) {
		if i%2 == 0 {
			_ = s.Push(pid, uint64(i))
		} else {
			_, _ = s.Pop(pid)
		}
	})
}

// countsExactly runs procs workers doing m operations each through g
// and checks its counters: every operation is counted once, on the
// shortcut or the slow path; every slow operation made at least one
// attempt under the lock; Slow, the adaptive tier's contended() signal
// and the one read that is safe under load, never decreases while the
// workers run; and ResetStats zeroes every slot.
func countsExactly(t *testing.T, g *core.Guard, procs, m int, op func(pid, i int)) {
	t.Helper()
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if slow := g.Slow(); slow < prev {
				t.Errorf("Slow fell from %d to %d under load", prev, slow)
			} else {
				prev = slow
			}
			runtime.Gosched()
		}
	}()
	hammer(procs, m, op)
	close(stop)
	<-sampled

	st := g.Stats()
	if st.Fast+st.Slow != uint64(procs*m) {
		t.Errorf("Fast+Slow = %d+%d, want %d", st.Fast, st.Slow, procs*m)
	}
	if st.Slow != g.Slow() {
		t.Errorf("Stats().Slow = %d, Slow() = %d at quiescence", st.Slow, g.Slow())
	}
	if st.Retries < st.Slow {
		t.Errorf("Retries = %d < Slow = %d", st.Retries, st.Slow)
	}
	g.ResetStats()
	if st := g.Stats(); st != (core.GuardStats{}) {
		t.Errorf("Stats after ResetStats = %+v, want zero", st)
	}
}

// TestSensitiveShellsFinishOversubscribed runs four workers per P on
// each shell. A slow-path holder whose attempts keep failing is
// waiting for a shortcut operation that may be descheduled behind it;
// DoOp's budgeted yield must let that operation run, so every worker
// finishes well inside the deadline. CI runs it at -cpu 1,2.
func TestSensitiveShellsFinishOversubscribed(t *testing.T) {
	procs, m := 4*runtime.GOMAXPROCS(0), 2000
	if testing.Short() {
		m = 200
	}
	for _, sh := range shells {
		t.Run(sh.name, func(t *testing.T) {
			op, _ := sh.build(procs)
			done := make(chan struct{})
			go func() {
				defer close(done)
				hammer(procs, m, op)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%d workers x %d ops not done after 30s at GOMAXPROCS %d", procs, m, runtime.GOMAXPROCS(0))
			}
		})
	}
}
