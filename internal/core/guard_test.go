package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/lock"
)

// TestGuardCounterLayout pins where a Guard's written words live. The
// Guard itself holds only the header every operation reads; the path
// counters sit in per-pid slots whose blank pads keep them at least
// 64 B (word start to word start) from the previous and next slot's
// counters and from any word outside the slot array, the header
// included. Fields are word-aligned, so two words that far apart never
// share a 64-byte line at any allocation offset. The offsets are read
// through reflect because contlint's mixedatomic pass flags
// unsafe.Offsetof on atomics.
func TestGuardCounterLayout(t *testing.T) {
	var header []string
	for g, i := reflect.TypeFor[Guard](), 0; i < g.NumField(); i++ {
		header = append(header, g.Field(i).Name)
	}
	if want := []string{"contention", "lk", "slots", "mask"}; !slices.Equal(header, want) {
		t.Fatalf("Guard fields = %v, want only the read-only header %v", header, want)
	}

	typ := reflect.TypeFor[guardSlot]()
	var counters []string
	var first, last uintptr // offsets of the first and last counter words
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		if counters == nil {
			first = f.Offset
		}
		counters = append(counters, f.Name)
		last = f.Offset + f.Type.Size() - 8
	}
	if want := []string{"fast", "slow", "retries"}; !slices.Equal(counters, want) {
		t.Fatalf("guardSlot counters = %v, want %v", counters, want)
	}
	if d := first + 8; d < 64 {
		t.Errorf("a slot's first counter starts %d B after the word before the slot, want >= 64", d)
	}
	if d := typ.Size() - last; d < 64 {
		t.Errorf("the next slot starts %d B after a slot's last counter, want >= 64", d)
	}

	// One slot per pid of a RoundRobin lock (rounded up to a power of
	// two, so a mask finds it); one shared slot for an IgnorePid lock.
	for _, c := range []struct {
		lk   lock.PidLock
		want int
	}{
		{lock.IgnorePid(lock.NewTAS()), 1},
		{lock.NewFigure3(1), 1},
		{lock.NewFigure3(2), 2},
		{lock.NewFigure3(3), 4},
		{lock.NewFigure3(8), 8},
	} {
		if g := NewGuard(c.lk); len(g.slots) != c.want || g.mask != c.want-1 {
			t.Errorf("%T: %d slots, mask %d; want %d slots", c.lk, len(g.slots), g.mask, c.want)
		}
	}
}
