package adaptive

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cmanager"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/set"
	"repro/internal/spec"
	"repro/internal/stack"
)

// manual returns thresholds with automatic adaptation disabled, so
// every migration in a test is an explicit MorphTo.
func manual() Thresholds {
	t := DefaultThresholds()
	t.Window = 0
	return t
}

func TestStackMorphPreservesLIFO(t *testing.T) {
	s := NewStack[int](16, 4, manual())
	for i := 0; i < 10; i++ {
		if err := s.Push(0, i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if s.Rung() != "sensitive" {
		t.Fatalf("start rung = %q", s.Rung())
	}
	if !s.MorphTo(0, 1) {
		t.Fatal("MorphTo(combining) failed")
	}
	if s.Rung() != "combining" {
		t.Fatalf("rung after morph = %q", s.Rung())
	}
	for i := 9; i >= 0; i-- {
		v, err := s.Pop(0)
		if err != nil || v != i {
			t.Fatalf("pop = %d, %v; want %d", v, err, i)
		}
	}
	if _, err := s.Pop(0); !errors.Is(err, stack.ErrEmpty) {
		t.Fatalf("pop on empty = %v", err)
	}
	if st := s.Stats(); st.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", st.Migrations)
	}
}

func TestQueueMorphPreservesFIFO(t *testing.T) {
	q := NewQueue[int](32, 4, 2, manual())
	for i := 0; i < 12; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	// Climb to combining (strict FIFO across the morph), drain half.
	if !q.MorphTo(0, 1) {
		t.Fatal("MorphTo(combining) failed")
	}
	for i := 0; i < 6; i++ {
		v, err := q.Dequeue(0)
		if err != nil || v != i {
			t.Fatalf("dequeue = %d, %v; want %d", v, err, i)
		}
	}
	// Descend back and drain the rest: still FIFO.
	if !q.MorphTo(0, 0) {
		t.Fatal("MorphTo(sensitive) failed")
	}
	for i := 6; i < 12; i++ {
		v, err := q.Dequeue(0)
		if err != nil || v != i {
			t.Fatalf("dequeue = %d, %v; want %d", v, err, i)
		}
	}
	if _, err := q.Dequeue(0); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("dequeue on empty = %v", err)
	}
	if st := q.Stats(); st.Migrations != 2 {
		t.Fatalf("migrations = %d, want 2", st.Migrations)
	}
}

func TestQueueShardedMorphKeepsMultiset(t *testing.T) {
	q := NewQueue[int](32, 4, 2, manual())
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if !q.MorphTo(0, 2) {
		t.Fatal("MorphTo(sharded) failed")
	}
	if q.Rung() != "sharded" {
		t.Fatalf("rung = %q", q.Rung())
	}
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		v, err := q.Dequeue(0)
		if err != nil {
			t.Fatalf("dequeue %d: %v", i, err)
		}
		if seen[v] {
			t.Fatalf("value %d dequeued twice", v)
		}
		seen[v] = true
	}
	if _, err := q.Dequeue(0); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("dequeue on empty = %v", err)
	}
}

func TestSetMorphPreservesMembership(t *testing.T) {
	s := NewSet(4, manual())
	for k := uint64(1); k <= 20; k++ {
		if !s.Add(0, k*3) {
			t.Fatalf("add %d reported false", k*3)
		}
	}
	for dst, name := range []string{"cow", "harris", "hash", "harris", "cow"} {
		_ = dst
		var idx int
		switch name {
		case "cow":
			idx = rungCow
		case "harris":
			idx = rungHarris
		case "hash":
			idx = rungHash
		}
		if !s.MorphTo(0, idx) {
			t.Fatalf("MorphTo(%s) failed", name)
		}
		if s.Rung() != name {
			t.Fatalf("rung = %q, want %q", s.Rung(), name)
		}
		for k := uint64(1); k <= 20; k++ {
			if !s.Contains(0, k*3) {
				t.Fatalf("on %s: missing key %d", name, k*3)
			}
			if s.Contains(0, k*3+1) {
				t.Fatalf("on %s: phantom key %d", name, k*3+1)
			}
		}
		if got := s.Len(); got != 20 {
			t.Fatalf("on %s: len = %d, want 20", name, got)
		}
	}
	if !s.Remove(0, 3) || s.Contains(0, 3) {
		t.Fatal("remove after morphs broken")
	}
	if st := s.Stats(); st.Migrations != 4 {
		t.Fatalf("migrations = %d, want 4", st.Migrations)
	}
}

func TestUnwrapTracksCurrentRung(t *testing.T) {
	s := NewStack[int](8, 2, manual())
	if _, ok := s.Unwrap().(*stack.Sensitive[int]); !ok {
		t.Fatalf("unwrap on rung 0 = %T", s.Unwrap())
	}
	s.MorphTo(0, 1)
	if _, ok := s.Unwrap().(*stack.Combining[int]); !ok {
		t.Fatalf("unwrap on rung 1 = %T", s.Unwrap())
	}

	st := NewSet(2, manual())
	if _, ok := st.Unwrap().(*set.Abortable); !ok {
		t.Fatalf("set unwrap on cow = %T", st.Unwrap())
	}
	st.MorphTo(0, rungHash)
	if _, ok := st.Unwrap().(*set.Hash); !ok {
		t.Fatalf("set unwrap on hash = %T", st.Unwrap())
	}
}

func TestForcingThresholdsOscillate(t *testing.T) {
	s := NewStack[int](64, 2, ForcingThresholds())
	for i := 0; i < 64; i++ {
		if err := s.Push(0, i); err != nil {
			t.Fatalf("push: %v", err)
		}
		if _, err := s.Pop(0); err != nil {
			t.Fatalf("pop: %v", err)
		}
	}
	if st := s.Stats(); st.Migrations < 4 {
		t.Fatalf("stack migrations under forcing = %d, want >= 4", st.Migrations)
	}

	se := NewSet(2, ForcingThresholds())
	for k := uint64(0); k < 64; k++ {
		se.Add(0, k%8)
		se.Remove(0, k%8)
	}
	if st := se.Stats(); st.Migrations < 4 {
		t.Fatalf("set migrations under forcing = %d, want >= 4", st.Migrations)
	}
}

func TestAutomaticClimbOnActiveProcs(t *testing.T) {
	th := DefaultThresholds()
	th.Window = 8
	th.UpProcs = 2
	th.UpContended = 1 << 30 // climb only via the active-pid signal
	th.DownProcs = 0         // and keep descent out of the picture
	s := NewStack[int](256, 4, th)
	// Interleave two pids from one goroutine so every decision window
	// deterministically sees two active pids.
	for i := 0; i < 100; i++ {
		for pid := 0; pid < 2; pid++ {
			s.Push(pid, i)
			s.Pop(pid)
		}
	}
	if st := s.Stats(); st.Migrations == 0 {
		t.Fatalf("no climb despite 2 active pids per window: %+v", st)
	}
	if s.Rung() != "combining" {
		t.Fatalf("rung = %q, want combining", s.Rung())
	}
}

func TestSetSizeClimb(t *testing.T) {
	th := DefaultThresholds()
	th.Window = 8
	s := NewSet(2, th)
	for k := uint64(0); k < 1000; k++ {
		s.Add(0, k)
	}
	if s.Rung() != "hash" {
		t.Fatalf("rung after 1000 inserts = %q, want hash", s.Rung())
	}
	for k := uint64(0); k < 1000; k++ {
		if !s.Contains(0, k) {
			t.Fatalf("missing key %d after climbs", k)
		}
	}
	// Shrink back below the descent thresholds; solo traffic descends.
	for k := uint64(0); k < 995; k++ {
		s.Remove(0, k)
	}
	for i := 0; i < 400; i++ {
		k := uint64(995 + i%5)
		s.Contains(0, k)
		s.Add(0, k)
	}
	if s.Rung() == "hash" {
		t.Fatalf("still on hash after shrink: %+v", s.Stats())
	}
}

func TestConcurrentMorphSmoke(t *testing.T) {
	const procs = 4
	q := NewQueue[int](4*1024, procs, 2, manual())
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if pid == 0 && i%50 == 0 {
					q.MorphTo(pid, (i/50)%3)
				}
				if err := q.Enqueue(pid, pid*1000+i); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				if _, err := q.Dequeue(pid); err != nil {
					t.Errorf("dequeue: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if _, err := q.Dequeue(0); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("queue not drained: %v", err)
	}
}

func TestConcurrentSetMorphSmoke(t *testing.T) {
	const procs = 4
	s := NewSet(procs, manual())
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if pid == 0 && i%40 == 0 {
					s.MorphTo(pid, (i/40)%3)
				}
				k := uint64(pid*1000 + i)
				if !s.Add(pid, k) {
					t.Errorf("add %d reported false", k)
					return
				}
				if !s.Contains(pid, k) {
					t.Errorf("lost key %d", k)
					return
				}
				if !s.Remove(pid, k) {
					t.Errorf("remove %d reported false", k)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if got := s.Len(); got != 0 {
		t.Fatalf("len after balanced ops = %d, want 0", got)
	}
}

// TestQuiesceBudgetAbortsAndDisables runs every ladder's engine into
// a stuck announce from a "crashed" pid 1, on a gated rung: every window
// must abort, abortLimit of them must disable adaptation, and the
// object must keep serving operations on its current rung.
func TestQuiesceBudgetAbortsAndDisables(t *testing.T) {
	th := manual()
	th.QuiesceBudget = 4
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"stack", func(t *testing.T) {
			s := NewStack[int](8, 2, th)
			abortsAndDisables(t, s.meta, 1, func() error {
				if err := s.Push(0, 7); err != nil {
					return err
				}
				if v, err := s.Pop(0); err != nil || v != 7 {
					return fmt.Errorf("pop = %d, %v", v, err)
				}
				return nil
			})
		}},
		{"queue", func(t *testing.T) {
			q := NewQueue[int](8, 2, 0, th)
			abortsAndDisables(t, q.meta, 1, func() error {
				if err := q.Enqueue(0, 7); err != nil {
					return err
				}
				if v, err := q.Dequeue(0); err != nil || v != 7 {
					return fmt.Errorf("dequeue = %d, %v", v, err)
				}
				return nil
			})
		}},
		{"set/harris", func(t *testing.T) {
			s := NewSet(2, th)
			if !s.MorphTo(0, rungHarris) {
				t.Fatal("MorphTo(harris) failed")
			}
			abortsAndDisables(t, s.meta, rungHash, func() error {
				if !s.Add(0, 7) || !s.Contains(0, 7) || !s.Remove(0, 7) || s.Contains(0, 7) {
					return errors.New("add/contains/remove of key 7 broken")
				}
				return nil
			})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// abortsAndDisables sticks pid 1's announce, tries to morph m to dst
// abortLimit times, and checks the abort→disable rule; serve runs
// operations on the object afterwards.
func abortsAndDisables[T any, R rung[T]](t *testing.T, m *meta[T, R], dst int, serve func() error) {
	t.Helper()
	before := m.Stats()
	m.ann[1].w.Write(1)
	for i := 0; i < abortLimit; i++ {
		if m.MorphTo(0, dst) {
			t.Fatal("morph succeeded despite stuck announce")
		}
	}
	st := m.Stats()
	if st.Aborted < abortLimit || st.Migrations != before.Migrations || st.Rung != before.Rung {
		t.Fatalf("stats %+v, want >= %d aborted windows and no move from %s", st, abortLimit, before.Rung)
	}
	if !m.disabled.Load() {
		t.Fatal("object not disabled after consecutive aborts")
	}
	if err := serve(); err != nil {
		t.Fatalf("after disable: %v", err)
	}
}

func TestSetRetryPolicySheds(t *testing.T) {
	s := NewSet(2, manual())
	s.SetRetryPolicy(cmanager.ByName("none"), 3)
	if m, b := s.RetryPolicy(); m == nil || b != 3 {
		t.Fatalf("RetryPolicy = %v, %d", m, b)
	}
	// Normal solo traffic on the cow rung never aborts, so the budget
	// is invisible here; this is a smoke test of the plumbing.
	if !s.Add(0, 42) || !s.Contains(0, 42) {
		t.Fatal("add under retry policy failed")
	}
}

func TestStatsTimeInRegime(t *testing.T) {
	s := NewQueue[int](8, 2, 0, manual())
	s.MorphTo(0, 1)
	st := s.Stats()
	if st.Rung != "combining" {
		t.Fatalf("rung = %q", st.Rung)
	}
	if len(st.InRung) == 0 {
		t.Fatal("no time-in-regime recorded")
	}
	if _, ok := st.InRung["sensitive"]; !ok {
		t.Fatal("no time recorded for the departed rung")
	}
}

func TestRungsNames(t *testing.T) {
	if got := NewStack[int](1, 1, manual()).Rungs(); len(got) != 2 || got[0] != "sensitive" || got[1] != "combining" {
		t.Fatalf("stack rungs = %v", got)
	}
	if got := NewQueue[int](1, 1, 0, manual()).Rungs(); len(got) != 3 || got[2] != "sharded" {
		t.Fatalf("queue rungs = %v", got)
	}
	if got := NewSet(1, manual()).Rungs(); len(got) != 3 || got[0] != "cow" || got[2] != "hash" {
		t.Fatalf("set rungs = %v", got)
	}
}

// TestSetStaleHelperLeavesLiveSourceAlone replays, solo, the window
// race on a harris or hash source: a helper quiesces, another helper
// aborts the window, live updates resume on the re-published source,
// and only then does the first helper act on its stale record. It must
// leave the epoch, the rung and the contents alone, and, sealing
// first, must not walk the live list at all: its observed accesses are
// the quiesce read of the other announce slot and the failed seal CAS.
func TestSetStaleHelperLeavesLiveSourceAlone(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst int
	}{{"harris", rungHarris, rungHash}, {"hash", rungHash, rungHarris}} {
		t.Run(tc.name, func(t *testing.T) {
			var st memory.Stats
			s := NewSetObserved(2, manual(), &st)
			ref := spec.NewSet()
			for k := uint64(0); k < 32; k += 2 {
				s.Add(0, k)
				ref.Add(k)
			}
			if !s.MorphTo(0, tc.src) {
				t.Fatalf("MorphTo(%s) failed", tc.name)
			}
			rec := s.state.Read()
			stale := &record[setRung]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, dst: tc.dst}
			if !s.state.CAS(rec, stale) {
				t.Fatal("open CAS failed")
			}
			if !quiesceSlots(s.ann, 0, s.t.quiesceBudget()) {
				t.Fatal("solo quiesce failed")
			}
			if !s.state.CAS(stale, &record[setRung]{gen: stale.gen + 1, rung: stale.rung, impl: stale.impl}) {
				t.Fatal("abort CAS failed")
			}
			for k := uint64(0); k < 48; k += 3 {
				if got, want := s.Add(1, k), ref.Add(k); got != want {
					t.Fatalf("Add(%d) = %v, spec %v", k, got, want)
				}
				if got, want := s.Remove(1, k+1), ref.Remove(k+1); got != want {
					t.Fatalf("Remove(%d) = %v, spec %v", k+1, got, want)
				}
			}
			live := s.state.Read()
			before, migs := st.Snapshot(), s.Stats().Migrations
			s.help(0, stale)
			if got, want := st.Snapshot().Sub(before), (memory.Snapshot{Reads: 1, CASes: 1}); got != want {
				t.Fatalf("stale helper observed %+v, want %+v (quiesce read + failed seal)", got, want)
			}
			if s.state.Read() != live || s.Stats().Migrations != migs || s.Rung() != tc.name {
				t.Fatalf("stale helper moved the epoch: rung %s, migrations %d → %d", s.Rung(), migs, s.Stats().Migrations)
			}
			if snap, want := s.Snapshot(), ref.Snapshot(); !slices.Equal(snap, want) {
				t.Fatalf("contents %v, spec %v", snap, want)
			}
		})
	}
}
