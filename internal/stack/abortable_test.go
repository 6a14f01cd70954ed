package stack

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/memory"
)

// weakUint32 lets one test body exercise both weak backends.
type weakUint32 interface {
	Weak[uint32]
	Len() int
	Snapshot() []uint32
	Capacity() int
}

func backends(k int) map[string]weakUint32 {
	return map[string]weakUint32{
		"boxed":  NewAbortable[uint32](k, 1),
		"packed": NewPacked(k),
	}
}

func TestWeakLIFOSolo(t *testing.T) {
	for name, s := range backends(8) {
		t.Run(name, func(t *testing.T) {
			for i := uint32(1); i <= 5; i++ {
				if err := s.TryPush(0, i); err != nil {
					t.Fatalf("TryPush(%d) = %v", i, err)
				}
			}
			for want := uint32(5); want >= 1; want-- {
				v, err := s.TryPop(0)
				if err != nil {
					t.Fatalf("TryPop() = %v", err)
				}
				if v != want {
					t.Fatalf("TryPop() = %d, want %d", v, want)
				}
			}
			if _, err := s.TryPop(0); !errors.Is(err, ErrEmpty) {
				t.Fatalf("TryPop() on empty = %v, want ErrEmpty", err)
			}
		})
	}
}

func TestWeakFull(t *testing.T) {
	for name, s := range backends(3) {
		t.Run(name, func(t *testing.T) {
			for i := uint32(0); i < 3; i++ {
				if err := s.TryPush(0, i); err != nil {
					t.Fatalf("TryPush #%d = %v", i, err)
				}
			}
			if err := s.TryPush(0, 99); !errors.Is(err, ErrFull) {
				t.Fatalf("TryPush on full = %v, want ErrFull", err)
			}
			// A failed-full push must not clobber the contents.
			if got := s.Len(); got != 3 {
				t.Fatalf("Len after full push = %d, want 3", got)
			}
		})
	}
}

func TestWeakSoloNeverAborts(t *testing.T) {
	// Claim A2: an operation executed in a concurrency-free context
	// always returns a non-⊥ value.
	for name, s := range backends(16) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			depth := 0
			for i := 0; i < 20000; i++ {
				if rng.Intn(2) == 0 {
					err := s.TryPush(0, uint32(i))
					if errors.Is(err, ErrAborted) {
						t.Fatalf("solo TryPush aborted at op %d", i)
					}
					if err == nil {
						depth++
					}
				} else {
					_, err := s.TryPop(0)
					if errors.Is(err, ErrAborted) {
						t.Fatalf("solo TryPop aborted at op %d", i)
					}
					if err == nil {
						depth--
					}
				}
			}
			if got := s.Len(); got != depth {
				t.Fatalf("Len = %d, want %d", got, depth)
			}
		})
	}
}

func TestWeakDifferentialVsReference(t *testing.T) {
	// Random solo runs must agree op-for-op with a plain slice stack.
	for name, s := range backends(10) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var ref []uint32
			for i := 0; i < 50000; i++ {
				if rng.Intn(2) == 0 {
					v := rng.Uint32()
					err := s.TryPush(0, v)
					switch {
					case len(ref) == s.Capacity():
						if !errors.Is(err, ErrFull) {
							t.Fatalf("op %d: push on full = %v", i, err)
						}
					case err != nil:
						t.Fatalf("op %d: push = %v", i, err)
					default:
						ref = append(ref, v)
					}
				} else {
					v, err := s.TryPop(0)
					if len(ref) == 0 {
						if !errors.Is(err, ErrEmpty) {
							t.Fatalf("op %d: pop on empty = %v", i, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: pop = %v", i, err)
					}
					want := ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					if v != want {
						t.Fatalf("op %d: pop = %d, want %d", i, v, want)
					}
				}
			}
		})
	}
}

func TestWeakSnapshot(t *testing.T) {
	for name, s := range backends(8) {
		t.Run(name, func(t *testing.T) {
			for _, v := range []uint32{10, 20, 30} {
				if err := s.TryPush(0, v); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Snapshot()
			want := []uint32{10, 20, 30}
			if len(got) != len(want) {
				t.Fatalf("Snapshot = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Snapshot = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestWeakSnapshotEmpty(t *testing.T) {
	for name, s := range backends(4) {
		t.Run(name, func(t *testing.T) {
			if got := s.Snapshot(); len(got) != 0 {
				t.Fatalf("Snapshot of empty = %v", got)
			}
		})
	}
}

func TestWeakPropertyPushPopRoundTrip(t *testing.T) {
	// Property: pushing a batch then popping it returns the reverse.
	for name := range backends(1) {
		t.Run(name, func(t *testing.T) {
			f := func(vals []uint32) bool {
				if len(vals) == 0 {
					return true
				}
				if len(vals) > 64 {
					vals = vals[:64]
				}
				var s weakUint32
				if name == "boxed" {
					s = NewAbortable[uint32](len(vals), 1)
				} else {
					s = NewPacked(len(vals))
				}
				for _, v := range vals {
					if s.TryPush(0, v) != nil {
						return false
					}
				}
				for i := len(vals) - 1; i >= 0; i-- {
					v, err := s.TryPop(0)
					if err != nil || v != vals[i] {
						return false
					}
				}
				_, err := s.TryPop(0)
				return errors.Is(err, ErrEmpty)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAbortableGenericPayload(t *testing.T) {
	// The boxed backend must carry arbitrary types.
	type payload struct {
		s string
		n int
	}
	s := NewAbortable[payload](4, 1)
	in := payload{s: "hello", n: 42}
	if err := s.TryPush(0, in); err != nil {
		t.Fatal(err)
	}
	got, err := s.TryPop(0)
	if err != nil || got != in {
		t.Fatalf("TryPop = (%+v, %v), want (%+v, nil)", got, err, in)
	}
}

func TestAbortableHelpCompletesLazyWrite(t *testing.T) {
	// The implementation is lazy: after a push, STACK[top] may be
	// stale until the next operation helps. Verify help happens by
	// pushing twice and checking the first cell through Snapshot.
	s := NewAbortable[uint32](4, 1)
	if err := s.TryPush(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.TryPush(0, 2); err != nil {
		t.Fatal(err)
	}
	// cell[1] must now hold 1's slot (written by the second push's
	// help).
	if got := *s.vals.At(wordHandle(s.cells.Read(1))); got != 1 {
		t.Fatalf("cell[1] holds %d, want 1 after help", got)
	}
	got := s.Snapshot()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Snapshot = %v, want [1 2]", got)
	}
}

func TestAbortableStaleHelperCannotCorrupt(t *testing.T) {
	// Regression test for the conditional help: a helper holding a
	// stale TOP word must not overwrite a newer cell. Simulate the
	// stale helper directly.
	s := NewAbortable[uint32](4, 1)
	if err := s.TryPush(0, 1); err != nil {
		t.Fatal(err)
	}
	stale := s.top.Read() // TOP = (1, 1, seq)
	// Advance the stack so cell[1] is rewritten with newer tags.
	if _, err := s.TryPop(0); err != nil {
		t.Fatal(err)
	} // TOP = (0, ⊥, _), pending cell[0] write
	if err := s.TryPush(0, 7); err != nil {
		t.Fatal(err)
	} // TOP = (1, 7, seq'), helps cell[0]
	if err := s.TryPush(0, 8); err != nil {
		t.Fatal(err)
	} // helps cell[1] ← (7, seq')
	before := s.cells.Read(1)
	s.help(stale) // stale helper replays
	after := s.cells.Read(1)
	if before != after {
		t.Fatalf("stale helper overwrote cell[1]: %#x -> %#x", before, after)
	}
	// And the stack still pops correctly.
	if v, err := s.TryPop(0); err != nil || v != 8 {
		t.Fatalf("pop = (%d, %v), want (8, nil)", v, err)
	}
	if v, err := s.TryPop(0); err != nil || v != 7 {
		t.Fatalf("pop = (%d, %v), want (7, nil)", v, err)
	}
}

func TestAbortableHelpInstallsTopRecord(t *testing.T) {
	// Cells 1..k start at 〈⊥, 0〉; STACK[0] is the 〈⊥, -1〉 dummy.
	const k = 4
	s := NewAbortable[uint32](k, 1)
	for x := 1; x <= k; x++ {
		if got := s.cells.Read(x); got != packCell(memory.NilHandle, 0) {
			t.Fatalf("cell[%d] = %#x, want 〈⊥, 0〉", x, got)
		}
	}
	if got := s.cells.Read(0); got != packCell(memory.NilHandle, ^uint32(0)) {
		t.Fatalf("cell[0] = %#x, want the dummy 〈⊥, -1〉", got)
	}
	// The help step installs the cell half of the TOP word it read:
	// after push→push, STACK[1] is the first push's 〈handle, seq〉.
	if err := s.TryPush(0, 1); err != nil {
		t.Fatal(err)
	}
	first := s.top.Read()
	if err := s.TryPush(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.cells.Read(1); got != first&cellMask {
		t.Fatalf("cell[1] = %#x, want the first push's TOP word %#x", got, first&cellMask)
	}
	// Helping the same word again is a no-op: its seq guard is spent.
	s.help(first)
	if got := s.cells.Read(1); got != first&cellMask {
		t.Fatalf("re-help replaced cell[1]: %#x -> %#x", first&cellMask, got)
	}
}

func TestSensitiveSoloPairAllocs(t *testing.T) {
	// Figure 3's fast path adds no allocation of its own, and the
	// Figure 1 attempts underneath recycle their value slots: a solo
	// push+pop pair allocates nothing.
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	s := NewSensitive[uint64](8, 2)
	if got := testing.AllocsPerRun(1000, func() {
		if err := s.Push(0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Pop(0); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Push+Pop allocs = %v, want 0", got)
	}
}

func TestWeakAccessCountSolo(t *testing.T) {
	// Claim A1 at the weak level: a successful contention-free
	// weak_push/weak_pop performs exactly 5 shared accesses
	// (read TOP, help read, help CAS, read neighbour cell, CAS TOP).
	var st memory.Stats
	s := NewAbortableObserved[uint32](8, 1, &st)
	if err := s.TryPush(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := st.Total(); got != 5 {
		t.Fatalf("weak_push accesses = %d (%+v), want 5", got, st.Snapshot())
	}
	st.Reset()
	if _, err := s.TryPop(0); err != nil {
		t.Fatal(err)
	}
	if got := st.Total(); got != 5 {
		t.Fatalf("weak_pop accesses = %d (%+v), want 5", got, st.Snapshot())
	}

	// Packed backend: the unconditional help CAS gives the same count.
	var stp memory.Stats
	p := NewPackedObserved(8, &stp)
	if err := p.TryPush(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := stp.Total(); got != 5 {
		t.Fatalf("packed weak_push accesses = %d (%+v), want 5", got, stp.Snapshot())
	}
}

func TestWeakEmptyFullAccessCount(t *testing.T) {
	// Returning empty/full is even cheaper: 3 accesses (read TOP,
	// help read + CAS).
	var st memory.Stats
	s := NewAbortableObserved[uint32](2, 1, &st)
	if _, err := s.TryPop(0); !errors.Is(err, ErrEmpty) {
		t.Fatal(err)
	}
	if got := st.Total(); got != 3 {
		t.Fatalf("empty pop accesses = %d, want 3", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"abortable k=0": func() { NewAbortable[int](0, 1) },
		// 4095 values + 16384 pids' free lists exceed 2^20-1 handles.
		"abortable handle overflow": func() { NewAbortable[int](memory.MaxIndex, 1<<14) },
		"packed k=0":                func() { NewPacked(0) },
		"packed k too large":        func() { NewPacked(memory.MaxIndex + 1) },
		"lockbased k=0":             func() { NewLockBased[int](0) },
		"naive k=0":                 func() { NewNaive[int](0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestProgressLabels(t *testing.T) {
	if NewAbortable[int](1, 1).Progress() != core.ObstructionFree {
		t.Error("Abortable progress label")
	}
	if NewPacked(1).Progress() != core.ObstructionFree {
		t.Error("Packed progress label")
	}
	if NewNonBlocking[int](1, 1).Progress() != core.NonBlocking {
		t.Error("NonBlocking progress label")
	}
	if NewSensitive[int](1, 2).Progress() != core.StarvationFree {
		t.Error("Sensitive progress label")
	}
	if NewTreiber[int](1).Progress() != core.NonBlocking {
		t.Error("Treiber progress label")
	}
	if NewLockBased[int](1).Progress() != core.StarvationFree {
		t.Error("LockBased(mutex) progress label")
	}
	// Over a merely deadlock-free lock neither lock-using stack is
	// starvation-free: raw TAS (E6's "no RR" variant) only guarantees
	// that some operation completes.
	rawTAS := lock.IgnorePid(lock.NewTAS())
	if NewSensitiveFrom[int](NewAbortable[int](1, 1), 1, rawTAS, nil).Progress() != core.NonBlocking {
		t.Error("Sensitive(raw TAS) progress label")
	}
	if NewSensitiveFrom[int](NewAbortable[int](1, 1), 1, lock.IgnorePid(lock.NewTicket()), nil).Progress() != core.StarvationFree {
		t.Error("Sensitive(ticket) progress label")
	}
	if NewLockBasedWith[int](1, rawTAS).Progress() != core.NonBlocking {
		t.Error("LockBased(raw TAS) progress label")
	}
}

func TestNaiveSequentiallyCorrect(t *testing.T) {
	// The ABA strawman must be a perfectly good stack when used solo —
	// that is what makes it a fair cautionary tale.
	s := NewNaive[uint32](8)
	for i := uint32(1); i <= 5; i++ {
		if err := s.TryPush(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint32(5); want >= 1; want-- {
		v, err := s.TryPop(0)
		if err != nil || v != want {
			t.Fatalf("pop = (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := s.TryPop(0); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty pop")
	}
	if err := func() error {
		for i := uint32(0); i < 9; i++ {
			if err := s.TryPush(0, i); err != nil {
				return err
			}
		}
		return nil
	}(); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull push = %v, want ErrFull", err)
	}
}
