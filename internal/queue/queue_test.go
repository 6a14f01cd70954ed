package queue

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/memory"
)

func TestAbortableFIFOSolo(t *testing.T) {
	q := NewAbortable[int](8)
	for i := 1; i <= 5; i++ {
		if err := q.TryEnqueue(i); err != nil {
			t.Fatalf("TryEnqueue(%d) = %v", i, err)
		}
	}
	for want := 1; want <= 5; want++ {
		v, err := q.TryDequeue()
		if err != nil || v != want {
			t.Fatalf("TryDequeue = (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := q.TryDequeue(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("dequeue on empty = %v, want ErrEmpty", err)
	}
}

func TestAbortableFull(t *testing.T) {
	q := NewAbortable[int](3)
	for i := 0; i < 3; i++ {
		if err := q.TryEnqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.TryEnqueue(99); !errors.Is(err, ErrFull) {
		t.Fatalf("enqueue on full = %v, want ErrFull", err)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestAbortableWrapsAround(t *testing.T) {
	// Exercise several laps around a tiny ring.
	q := NewAbortable[int](2)
	for lap := 0; lap < 1000; lap++ {
		if err := q.TryEnqueue(2 * lap); err != nil {
			t.Fatalf("lap %d: %v", lap, err)
		}
		if err := q.TryEnqueue(2*lap + 1); err != nil {
			t.Fatalf("lap %d: %v", lap, err)
		}
		if v, err := q.TryDequeue(); err != nil || v != 2*lap {
			t.Fatalf("lap %d: dequeue = (%d, %v)", lap, v, err)
		}
		if v, err := q.TryDequeue(); err != nil || v != 2*lap+1 {
			t.Fatalf("lap %d: dequeue = (%d, %v)", lap, v, err)
		}
	}
}

func TestAbortableSoloNeverAborts(t *testing.T) {
	q := NewAbortable[int](16)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 {
			if err := q.TryEnqueue(i); errors.Is(err, ErrAborted) {
				t.Fatalf("solo TryEnqueue aborted at op %d", i)
			}
		} else {
			if _, err := q.TryDequeue(); errors.Is(err, ErrAborted) {
				t.Fatalf("solo TryDequeue aborted at op %d", i)
			}
		}
	}
}

func TestAbortableDifferentialVsReference(t *testing.T) {
	q := NewAbortable[uint32](7)
	rng := rand.New(rand.NewSource(9))
	var ref []uint32
	for i := 0; i < 50000; i++ {
		if rng.Intn(2) == 0 {
			v := rng.Uint32()
			err := q.TryEnqueue(v)
			switch {
			case len(ref) == q.Capacity():
				if !errors.Is(err, ErrFull) {
					t.Fatalf("op %d: enqueue on full = %v", i, err)
				}
			case err != nil:
				t.Fatalf("op %d: enqueue = %v", i, err)
			default:
				ref = append(ref, v)
			}
		} else {
			v, err := q.TryDequeue()
			if len(ref) == 0 {
				if !errors.Is(err, ErrEmpty) {
					t.Fatalf("op %d: dequeue on empty = %v", i, err)
				}
				continue
			}
			if err != nil || v != ref[0] {
				t.Fatalf("op %d: dequeue = (%d, %v), want (%d, nil)", i, v, err, ref[0])
			}
			ref = ref[1:]
		}
	}
}

func TestAbortableSnapshot(t *testing.T) {
	q := NewAbortable[int](4)
	for _, v := range []int{10, 20, 30} {
		if err := q.TryEnqueue(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.TryDequeue(); err != nil {
		t.Fatal(err)
	}
	got := q.Snapshot()
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("Snapshot = %v, want [20 30]", got)
	}
}

func TestAbortableAccessCountSolo(t *testing.T) {
	// The queue's weak operations cost the same 5 shared accesses as
	// the stack's (E9's symmetry with Theorem 1).
	var st memory.Stats
	q := NewAbortableObserved[int](8, &st)
	if err := q.TryEnqueue(1); err != nil {
		t.Fatal(err)
	}
	if got := st.Total(); got != 5 {
		t.Fatalf("TryEnqueue accesses = %d (%+v), want 5", got, st.Snapshot())
	}
	st.Reset()
	if _, err := q.TryDequeue(); err != nil {
		t.Fatal(err)
	}
	if got := st.Total(); got != 5 {
		t.Fatalf("TryDequeue accesses = %d (%+v), want 5", got, st.Snapshot())
	}
	st.Reset()
	if _, err := q.TryDequeue(); !errors.Is(err, ErrEmpty) {
		t.Fatal("expected empty")
	}
	if got := st.Total(); got != 3 { // read HEAD, read seq, read TAIL
		t.Fatalf("empty dequeue accesses = %d, want 3", got)
	}
}

func TestAbortablePropertyRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		q := NewAbortable[uint16](len(vals))
		for _, v := range vals {
			if q.TryEnqueue(v) != nil {
				return false
			}
		}
		for _, want := range vals {
			v, err := q.TryDequeue()
			if err != nil || v != want {
				return false
			}
		}
		_, err := q.TryDequeue()
		return errors.Is(err, ErrEmpty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMichaelScottFIFOSolo(t *testing.T) {
	q := NewMichaelScott[int](1)
	for i := 1; i <= 100; i++ {
		_ = q.Enqueue(0, i)
	}
	for want := 1; want <= 100; want++ {
		v, err := q.Dequeue(0)
		if err != nil || v != want {
			t.Fatalf("Dequeue = (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := q.Dequeue(0); !errors.Is(err, ErrEmpty) {
		t.Fatal("expected ErrEmpty")
	}
	if q.Len() != 0 {
		t.Fatal("Len != 0 after drain")
	}
}

func TestLockBasedFIFO(t *testing.T) {
	q := NewLockBased[int](3)
	if q.Capacity() != 3 {
		t.Fatal("capacity")
	}
	for i := 1; i <= 3; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Enqueue(0, 4); !errors.Is(err, ErrFull) {
		t.Fatalf("enqueue on full = %v", err)
	}
	for want := 1; want <= 3; want++ {
		v, err := q.Dequeue(0)
		if err != nil || v != want {
			t.Fatalf("Dequeue = (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := q.Dequeue(0); !errors.Is(err, ErrEmpty) {
		t.Fatal("expected ErrEmpty")
	}
}

func TestNonBlockingQueueSolo(t *testing.T) {
	q := NewNonBlocking[int](4)
	if err := q.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	v, err := q.Dequeue()
	if err != nil || v != 1 {
		t.Fatalf("Dequeue = (%d, %v)", v, err)
	}
	if _, err := q.Dequeue(); !errors.Is(err, ErrEmpty) {
		t.Fatal("expected ErrEmpty")
	}
}

func TestSensitiveQueueSolo(t *testing.T) {
	q := NewSensitive[int](4, 2)
	if err := q.Enqueue(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(1, 2); err != nil {
		t.Fatal(err)
	}
	if v, err := q.Dequeue(0); err != nil || v != 1 {
		t.Fatalf("Dequeue = (%d, %v)", v, err)
	}
	if v, err := q.Dequeue(1); err != nil || v != 2 {
		t.Fatalf("Dequeue = (%d, %v)", v, err)
	}
	if st := q.Guard().Stats(); st.Slow != 0 {
		t.Fatalf("solo run took the slow path %d times", st.Slow)
	}
}

func TestQueueProgressLabels(t *testing.T) {
	if NewAbortable[int](1).Progress() != core.ObstructionFree {
		t.Error("Abortable label")
	}
	if NewNonBlocking[int](1).Progress() != core.NonBlocking {
		t.Error("NonBlocking label")
	}
	if NewSensitive[int](1, 2).Progress() != core.StarvationFree {
		t.Error("Sensitive label")
	}
	if NewMichaelScott[int](1).Progress() != core.NonBlocking {
		t.Error("MichaelScott label")
	}
	if NewLockBased[int](1).Progress() != core.StarvationFree {
		t.Error("LockBased label")
	}
	rawTAS := lock.IgnorePid(lock.NewTAS())
	if NewSensitiveFrom[int](NewAbortable[int](1), rawTAS).Progress() != core.NonBlocking {
		t.Error("Sensitive(raw TAS) label")
	}
	if NewSensitiveFrom[int](NewAbortable[int](1), lock.IgnorePid(lock.NewTicket())).Progress() != core.StarvationFree {
		t.Error("Sensitive(ticket) label")
	}
	if NewLockBasedWith[int](1, rawTAS).Progress() != core.NonBlocking {
		t.Error("LockBased(raw TAS) label")
	}
}

func TestQueueConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"abortable": func() { NewAbortable[int](0) },
		"lockbased": func() { NewLockBased[int](0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with k=0 did not panic", name)
				}
			}()
			f()
		}()
	}
}
