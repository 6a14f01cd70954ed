package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/lock"
)

// TestGuardCounterLayout pins where a Guard's written words live. The
// Guard itself holds only the header every operation reads; the path
// counters sit in one slot per pid, whose blank pads keep them at least
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
	if want := []string{"contention", "lk", "slots"}; !slices.Equal(header, want) {
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

	// One slot per pid, whatever the lock: an IgnorePid lock takes any
	// pid, and a slot only its owner writes needs every pid to have
	// its own. A pid outside [0, n) must panic, not alias a slot.
	for _, c := range []struct {
		lk lock.PidLock
		n  int
	}{
		{lock.IgnorePid(lock.NewTAS()), 1},
		{lock.IgnorePid(lock.NewTicket()), 4},
		{lock.NewFigure3(1), 1},
		{lock.NewFigure3(3), 3},
		{lock.NewFigure3(8), 8},
	} {
		g := NewGuard(c.n, c.lk)
		if len(g.slots) != c.n {
			t.Errorf("%T for %d pids: %d slots, want %d", c.lk, c.n, len(g.slots), c.n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T for %d pids: pid %d did not panic", c.lk, c.n, c.n)
				}
			}()
			Do(g, c.n, func() (int, bool) { return 0, true })
		}()
	}
}
