package stack

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestEliminationSequentialLIFO(t *testing.T) {
	s := NewElimination[int](0, 1)
	for i := 1; i <= 100; i++ {
		if err := s.Push(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for want := 100; want >= 1; want-- {
		v, err := s.Pop(0)
		if err != nil || v != want {
			t.Fatalf("Pop = (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := s.Pop(0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Pop on empty = %v", err)
	}
	if s.Len() != 0 {
		t.Fatal("Len != 0 after drain")
	}
}

func TestEliminationConserves(t *testing.T) {
	procs, perProc := 8, stressN(3000)
	s := NewElimination[uint64](4, procs)
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

func TestEliminationFiresUnderContention(t *testing.T) {
	// Under a symmetric push/pop storm the elimination array should
	// actually serve pairs (statistical: assert it fired at all over
	// a large run on a contended stack).
	const procs, per = 8, 20000
	s := NewElimination[uint64](4, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if pid%2 == 0 {
					_ = s.Push(pid, uint64(pid)<<32|uint64(i))
				} else {
					_, _ = s.Pop(pid)
				}
			}
		}(p)
	}
	wg.Wait()
	st := s.Stats()
	if st.PushesEliminated != st.PopsEliminated {
		t.Fatalf("eliminated pushes (%d) != eliminated pops (%d): unpaired elimination",
			st.PushesEliminated, st.PopsEliminated)
	}
	t.Logf("eliminated pairs: %d", st.PushesEliminated)
}

func TestEliminationPairCountsAlwaysMatch(t *testing.T) {
	// Every eliminated push must pair with exactly one eliminated
	// pop, under any mix.
	procs, per := 6, stressN(10000)
	s := NewElimination[uint64](2, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = s.Push(pid, uint64(pid)<<32|uint64(i))
				if _, err := s.Pop(pid); err != nil && !errors.Is(err, ErrEmpty) {
					t.Errorf("pop: %v", err)
				}
			}
		}(p)
	}
	wg.Wait()
	st := s.Stats()
	if st.PushesEliminated != st.PopsEliminated {
		t.Fatalf("unpaired elimination: %+v", st)
	}
}

func TestEliminationProgressLabel(t *testing.T) {
	if NewElimination[int](0, 1).Progress() != core.NonBlocking {
		t.Fatal("Elimination progress label")
	}
}

func TestEliminationDefaultWidth(t *testing.T) {
	s := NewElimination[int](0, 1)
	if len(s.slots) != 4 {
		t.Fatalf("default width = %d, want 4", len(s.slots))
	}
	if err := s.Push(0, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Pop(0); err != nil || v != 1 {
		t.Fatalf("round-trip = (%d, %v)", v, err)
	}
}
