package stack

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/spec"
)

// interpretOps decodes a fuzz byte string into a solo op sequence and
// cross-checks a weak stack against the sequential spec. Byte 2i
// selects push (even) or pop (odd); byte 2i+1 is the pushed value.
func interpretOps(t *testing.T, data []byte, k int, tryPush func(uint32) error, tryPop func() (uint32, error)) {
	t.Helper()
	ref := spec.NewStack[uint32](k)
	for i := 0; i+1 < len(data); i += 2 {
		if data[i]%2 == 0 {
			v := uint32(data[i+1])
			err := tryPush(v)
			if ref.Push(v) {
				if err != nil {
					t.Fatalf("op %d: push(%d) = %v, spec accepted", i, v, err)
				}
			} else if !errors.Is(err, ErrFull) {
				t.Fatalf("op %d: push(%d) = %v, spec reports full", i, v, err)
			}
		} else {
			v, err := tryPop()
			want, ok := ref.Pop()
			if ok {
				if err != nil || v != want {
					t.Fatalf("op %d: pop = (%d, %v), spec has %d", i, v, err, want)
				}
			} else if !errors.Is(err, ErrEmpty) {
				t.Fatalf("op %d: pop = (%d, %v), spec reports empty", i, v, err)
			}
		}
	}
}

func FuzzAbortableVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 1, 0, 0, 8, 0, 7, 0, 6, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		s := NewAbortable[uint32](k, 1)
		interpretOps(t, data, k,
			func(v uint32) error { return s.TryPush(0, v) },
			func() (uint32, error) { return s.TryPop(0) })
	})
}

func FuzzPackedVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0})
	f.Add([]byte{1, 0, 0, 3, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		s := NewPacked(k)
		interpretOps(t, data, k,
			func(v uint32) error { return s.TryPush(0, v) },
			func() (uint32, error) { return s.TryPop(0) })
	})
}

func FuzzSensitiveVsSpec(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 0, 6, 0, 7, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		s := NewSensitive[uint32](k, 1)
		interpretOps(t, data, k,
			func(v uint32) error { return s.Push(0, v) },
			func() (uint32, error) { return s.Pop(0) })
	})
}

func FuzzCombiningVsSpec(f *testing.F) {
	// Drive the contended entry points: a solo run of Push/Pop never
	// leaves the fast path (covered by TestCombiningMatchesSpecSolo),
	// so this target forces every op through publish + combine.
	f.Add([]byte{0, 5, 1, 0, 0, 6, 0, 7, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		s := NewCombining[uint32](k, 1)
		interpretOps(t, data, k,
			func(v uint32) error { return s.PushContended(0, v) },
			func() (uint32, error) { return s.PopContended(0) })
	})
}

// interpretStringOps is interpretOps over a string-valued weak stack:
// each value travels as its decimal text, so a value written, read or
// cleared out of turn shows up as a wrong or empty string.
func interpretStringOps(t *testing.T, data []byte, k int, s Weak[string]) {
	t.Helper()
	interpretOps(t, data, k,
		func(v uint32) error { return s.TryPush(0, strconv.FormatUint(uint64(v), 10)) },
		func() (uint32, error) {
			str, err := s.TryPop(0)
			if err != nil {
				return 0, err
			}
			v, perr := strconv.ParseUint(str, 10, 32)
			if perr != nil {
				t.Fatalf("popped %q: %v", str, perr)
			}
			return uint32(v), nil
		})
}

func FuzzTreiberPooledVsSpec(f *testing.F) {
	// Solo cross-check of the recycled-node stack against the spec at a
	// pointer-carrying T: the single-pid pool is LIFO, so every pop's
	// node returns on the very next push — maximum same-address reuse
	// pressure on the head tag.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 1, 0, 0, 8, 1, 0, 0, 7, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		interpretStringOps(t, data, 1<<30, NewTreiber[string](1)) // effectively unbounded
	})
}

func FuzzAbortableStringStackVsSpec(f *testing.F) {
	// The Figure 1 stack at a pointer-carrying T: the single-pid arena
	// is LIFO, so a popped value's slot is the next push's slot, while
	// STACK[] still holds the old handle under an older sequence number.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 1, 0, 0, 8, 1, 0, 0, 7, 0, 6, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		interpretStringOps(t, data, k, NewAbortable[string](k, 1))
	})
}

func FuzzAbortablePooledVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 0, 0, 3, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		s := NewAbortable[uint64](k, 1)
		interpretOps(t, data, k,
			func(v uint32) error { return s.TryPush(0, uint64(v)) },
			func() (uint32, error) { v, err := s.TryPop(0); return uint32(v), err })
	})
}

// The cross-backend lockstep fuzzers live at the repo root now
// (FuzzStackBackendsAgree in the public repro_test package): they
// iterate repro.Catalog() instead of enumerating backends by hand, so
// every exported backend — including the internal variants' public
// faces — is replayed against the spec from one list. The per-backend
// *VsSpec targets above stay here to keep the internal-only packed
// variant and the non-uint64 value types covered solo.
