package stack

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestCombiningMatchesSpecSolo(t *testing.T) {
	const k = 4
	s := NewCombining[uint32](k, 1)
	// Reuse the fuzz interpreter's spec cross-check on a fixed tape:
	// fill past capacity, drain past empty, interleave.
	tape := []byte{
		0, 1, 0, 2, 0, 3, 0, 4, 0, 5, // pushes 1-5 (5th hits full)
		1, 0, 1, 0, 1, 0, 1, 0, 1, 0, // pops past empty
		0, 7, 1, 0, 0, 8, 0, 9, 1, 0,
	}
	interpretOps(t, tape, k,
		func(v uint32) error { return s.Push(0, v) },
		func() (uint32, error) { return s.Pop(0) })
	if st := s.Stats(); st.Published != 0 {
		t.Fatalf("solo run published %d requests", st.Published)
	}
}

func TestCombiningConserves(t *testing.T) {
	procs, perProc, k := 8, stressN(2000), 64
	s := NewCombining[uint64](k, procs)
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
	st := s.Stats()
	if st.Fast+st.Published == 0 {
		t.Fatal("core saw no operations")
	}
	if st.Served != st.Published {
		t.Fatalf("Served = %d, Published = %d", st.Served, st.Published)
	}
}

// TestCombiningStackOversubscribed runs four workers per P on the
// combining stack. The shortcut's re-attempts do not yield, so a
// process descheduled mid-operation must not starve the others: the
// bounded attempts still publish, and the combiner's failed applies
// yield. Every value must be popped or left exactly once. CI runs it
// at -cpu 1,2.
func TestCombiningStackOversubscribed(t *testing.T) {
	procs, perProc, k := 4*runtime.GOMAXPROCS(0), stressN(2000), 64
	s := NewCombining[uint64](k, procs)
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
	if st := s.Stats(); st.Served != st.Published {
		t.Fatalf("Served = %d, Published = %d", st.Served, st.Published)
	}
}

func TestCombiningOverTreiber(t *testing.T) {
	// The combining construction composes with any pid-taking weak
	// stack — here the unbounded pooled Treiber stack, whose attempts
	// recycle through the executing process's free list.
	procs, perProc := 6, stressN(2000)
	s := NewCombiningFrom[uint64](NewTreiber[uint64](procs), procs)
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

func TestCombiningFastPathDominatesWhenSolo(t *testing.T) {
	s := NewCombining[int](16, 4)
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
	if st := s.Stats(); st.Published != 0 {
		t.Fatalf("solo run took the publication path %d times", st.Published)
	}
}

func TestCombiningContendedPath(t *testing.T) {
	s := NewCombining[int](4, 2)
	if err := s.PushContended(0, 7); err != nil {
		t.Fatal(err)
	}
	v, err := s.PopContended(1)
	if err != nil || v != 7 {
		t.Fatalf("PopContended = (%d, %v), want (7, nil)", v, err)
	}
	st := s.Stats()
	if st.Fast != 0 || st.Published != 2 || st.Combines == 0 {
		t.Fatalf("stats = %+v, want 0 fast / 2 published", st)
	}
}
