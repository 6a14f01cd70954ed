package deque

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/memory"
	"repro/internal/spec"
)

func TestSoloBothEnds(t *testing.T) {
	d := NewAbortable(8)
	if err := d.TryPushRight(1); err != nil {
		t.Fatal(err)
	}
	if err := d.TryPushRight(2); err != nil {
		t.Fatal(err)
	}
	if err := d.TryPushLeft(3); err != nil {
		t.Fatal(err)
	}
	// Contents: 3 1 2
	got := d.Snapshot()
	want := []uint32{3, 1, 2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	if v, err := d.TryPopLeft(); err != nil || v != 3 {
		t.Fatalf("PopLeft = (%d, %v), want (3, nil)", v, err)
	}
	if v, err := d.TryPopRight(); err != nil || v != 2 {
		t.Fatalf("PopRight = (%d, %v), want (2, nil)", v, err)
	}
	if v, err := d.TryPopRight(); err != nil || v != 1 {
		t.Fatalf("PopRight = (%d, %v), want (1, nil)", v, err)
	}
	if _, err := d.TryPopLeft(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("PopLeft on empty = %v", err)
	}
	if _, err := d.TryPopRight(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("PopRight on empty = %v", err)
	}
}

func TestWindowDriftFullSemantics(t *testing.T) {
	// The non-circular array: each side is full when its sentinel
	// supply runs out. max=4, middle split: 2 LN cells usable on the
	// left (indices 1..2), 2 RN on the right (3..4)... exactly per
	// spec.Deque.
	d := NewAbortable(4)
	ref := spec.NewDeque[uint32](4)
	// Fill the right side.
	for i := uint32(0); ; i++ {
		err := d.TryPushRight(i)
		ok := ref.PushRight(i)
		if ok != (err == nil) {
			t.Fatalf("push %d: impl %v, spec %v", i, err, ok)
		}
		if !ok {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("expected ErrFull, got %v", err)
			}
			break
		}
	}
	// The left side still has room.
	if err := d.TryPushLeft(99); err != nil {
		t.Fatalf("left push after right-full = %v", err)
	}
	if !ref.PushLeft(99) {
		t.Fatal("spec disagrees on left push")
	}
	// Popping right frees right-side room again.
	if _, err := d.TryPopRight(); err != nil {
		t.Fatal(err)
	}
	ref.PopRight()
	if err := d.TryPushRight(7); err != nil {
		t.Fatalf("push after pop = %v", err)
	}
	ref.PushRight(7)
	if d.Len() != ref.Len() {
		t.Fatalf("Len = %d, spec %d", d.Len(), ref.Len())
	}
}

func TestDifferentialVsSpec(t *testing.T) {
	d := NewAbortable(6)
	ref := spec.NewDeque[uint32](6)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100000; i++ {
		v := rng.Uint32() >> 1
		switch rng.Intn(4) {
		case 0:
			err := d.TryPushRight(v)
			ok := ref.PushRight(v)
			if ok != (err == nil) || (!ok && !errors.Is(err, ErrFull)) {
				t.Fatalf("op %d pushR: impl %v, spec %v", i, err, ok)
			}
		case 1:
			err := d.TryPushLeft(v)
			ok := ref.PushLeft(v)
			if ok != (err == nil) || (!ok && !errors.Is(err, ErrFull)) {
				t.Fatalf("op %d pushL: impl %v, spec %v", i, err, ok)
			}
		case 2:
			got, err := d.TryPopRight()
			want, ok := ref.PopRight()
			if ok != (err == nil) || (!ok && !errors.Is(err, ErrEmpty)) || (ok && got != want) {
				t.Fatalf("op %d popR: impl (%d,%v), spec (%d,%v)", i, got, err, want, ok)
			}
		case 3:
			got, err := d.TryPopLeft()
			want, ok := ref.PopLeft()
			if ok != (err == nil) || (!ok && !errors.Is(err, ErrEmpty)) || (ok && got != want) {
				t.Fatalf("op %d popL: impl (%d,%v), spec (%d,%v)", i, got, err, want, ok)
			}
		}
	}
}

func TestSoloNeverAborts(t *testing.T) {
	d := NewAbortable(8)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40000; i++ {
		var err error
		switch rng.Intn(4) {
		case 0:
			err = d.TryPushRight(uint32(i))
		case 1:
			err = d.TryPushLeft(uint32(i))
		case 2:
			_, err = d.TryPopRight()
		case 3:
			_, err = d.TryPopLeft()
		}
		if errors.Is(err, ErrAborted) {
			t.Fatalf("solo op %d aborted", i)
		}
	}
}

func TestInvariantAlwaysHolds(t *testing.T) {
	// After every solo op the array must match LN+ Data* RN+.
	d := NewAbortable(5)
	rng := rand.New(rand.NewSource(3))
	check := func() {
		state := 0 // 0: in LN prefix, 1: in data, 2: in RN suffix
		for i := 0; i <= d.max+1; i++ {
			_, kind := d.kindAt(i)
			switch kind {
			case kindLN:
				if state != 0 {
					t.Fatalf("LN after non-LN at %d", i)
				}
			case kindData:
				if state == 2 {
					t.Fatalf("data after RN at %d", i)
				}
				state = 1
			case kindRN:
				state = 2
			}
		}
		if _, kind := d.kindAt(0); kind != kindLN {
			t.Fatal("left sentinel not LN")
		}
		if _, kind := d.kindAt(d.max + 1); kind != kindRN {
			t.Fatal("right sentinel not RN")
		}
	}
	for i := 0; i < 20000; i++ {
		switch rng.Intn(4) {
		case 0:
			d.TryPushRight(uint32(i))
		case 1:
			d.TryPushLeft(uint32(i))
		case 2:
			d.TryPopRight()
		case 3:
			d.TryPopLeft()
		}
		check()
	}
}

func TestAccessCountsSolo(t *testing.T) {
	// Not constant like the stack's 5 — the oracle scan costs extra —
	// but bounded and hint-stabilized: measure and pin the steady
	// state so regressions surface.
	var st memory.Stats
	d := NewAbortableObserved(8, &st)
	if err := d.TryPushRight(1); err != nil {
		t.Fatal(err)
	}
	st.Reset()
	if err := d.TryPushRight(2); err != nil {
		t.Fatal(err)
	}
	pushCost := st.Total()
	if pushCost < 6 || pushCost > 10 {
		t.Fatalf("steady-state TryPushRight = %d accesses, want 6..10 (%+v)", pushCost, st.Snapshot())
	}
	st.Reset()
	if _, err := d.TryPopRight(); err != nil {
		t.Fatal(err)
	}
	popCost := st.Total()
	if popCost < 6 || popCost > 10 {
		t.Fatalf("steady-state TryPopRight = %d accesses, want 6..10 (%+v)", popCost, st.Snapshot())
	}
}

func TestCapacityOne(t *testing.T) {
	d := NewAbortable(1)
	// Middle split with max=1: no usable LN cells → left always full.
	if err := d.TryPushLeft(1); !errors.Is(err, ErrFull) {
		t.Fatalf("pushLeft on max=1 = %v, want ErrFull", err)
	}
	if err := d.TryPushRight(5); err != nil {
		t.Fatal(err)
	}
	if err := d.TryPushRight(6); !errors.Is(err, ErrFull) {
		t.Fatalf("second pushRight = %v, want ErrFull", err)
	}
	// Both ends can pop the single element.
	if v, err := d.TryPopLeft(); err != nil || v != 5 {
		t.Fatalf("PopLeft = (%d, %v)", v, err)
	}
}

func TestConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAbortable(0) did not panic")
		}
	}()
	NewAbortable(0)
}

func TestProgressLabels(t *testing.T) {
	if NewAbortable(2).Progress() != core.ObstructionFree {
		t.Error("Abortable label")
	}
	if NewNonBlocking(2).Progress() != core.NonBlocking {
		t.Error("NonBlocking label")
	}
	if NewSensitive(2, 2).Progress() != core.StarvationFree {
		t.Error("Sensitive label")
	}
	if NewSensitiveFrom(NewAbortable(2), 1, lock.IgnorePid(lock.NewTAS())).Progress() != core.NonBlocking {
		t.Error("Sensitive(raw TAS) label")
	}
	if NewSensitiveFrom(NewAbortable(2), 1, lock.IgnorePid(lock.NewTicket())).Progress() != core.StarvationFree {
		t.Error("Sensitive(ticket) label")
	}
}

func TestTowersSolo(t *testing.T) {
	nb := NewNonBlocking(4)
	if err := nb.PushRight(1); err != nil {
		t.Fatal(err)
	}
	if err := nb.PushLeft(2); err != nil {
		t.Fatal(err)
	}
	if v, err := nb.PopLeft(); err != nil || v != 2 {
		t.Fatalf("PopLeft = (%d, %v)", v, err)
	}
	if v, err := nb.PopRight(); err != nil || v != 1 {
		t.Fatalf("PopRight = (%d, %v)", v, err)
	}

	s := NewSensitive(4, 2)
	if err := s.PushRight(0, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := s.PopLeft(1); err != nil || v != 7 {
		t.Fatalf("strong PopLeft = (%d, %v)", v, err)
	}
	if st := s.Guard().Stats(); st.Slow != 0 {
		t.Fatalf("solo strong ops took the slow path %d times", st.Slow)
	}
}

// TestHintLayout pins the two hints on lines of their own (DESIGN §2):
// each starts at least 64 B after the other's last word and after the
// allocation's start, and ends at least 64 B before the next
// allocation. Fields are word-aligned, so they never share a 64-byte
// line at any allocation offset.
func TestHintLayout(t *testing.T) {
	typ := reflect.TypeFor[hints]()
	var names []string
	var offs []uintptr
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			names = append(names, f.Name)
			offs = append(offs, f.Offset)
		}
	}
	if want := []string{"left", "right"}; !slices.Equal(names, want) {
		t.Fatalf("hints registers = %v, want %v", names, want)
	}
	last := func(off uintptr) uintptr { return off + reflect.TypeFor[memory.Word]().Size() - 8 }
	if offs[0] < 64 || offs[1]-last(offs[0]) < 64 || typ.Size()-last(offs[1]) < 64 {
		t.Errorf("hints offsets %v in %d B, want each word >= 64 B from the other and the edges", offs, typ.Size())
	}
}

// BenchmarkAbortableDequeBothEnds is E14 part 2's traffic: one
// goroutine works each end of a half-full deque of 1024, and an
// iteration is one push and one pop on each side. Each side writes its
// own hint after every operation, so hints sharing a line would move
// that line on every operation (TestHintLayout).
func BenchmarkAbortableDequeBothEnds(b *testing.B) {
	b.ReportAllocs()
	d := NewAbortable(1024)
	for i := uint32(0); i < 256; i++ {
		if err := d.TryPushRight(i); err != nil {
			b.Fatal(err)
		}
	}
	done := func(err error) bool { return !errors.Is(err, ErrAborted) }
	var wg sync.WaitGroup
	wg.Add(2)
	b.ResetTimer()
	go func() {
		defer wg.Done()
		for n := 0; n < b.N; n++ {
			core.Retry(nil, func() (error, bool) {
				err := d.TryPushRight(1)
				return err, done(err)
			})
			core.Retry(nil, func() (error, bool) {
				_, err := d.TryPopRight()
				return err, done(err)
			})
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n < b.N; n++ {
			v := core.Retry(nil, func() (uint32, bool) {
				v, err := d.TryPopLeft()
				return v, done(err)
			})
			core.Retry(nil, func() (error, bool) {
				err := d.TryPushLeft(v)
				return err, done(err)
			})
		}
	}()
	wg.Wait()
}
