package queue

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/spec"
)

// interpretQueueOps decodes a fuzz byte string into a solo op sequence
// and cross-checks a weak queue against the sequential spec.
func interpretQueueOps(t *testing.T, data []byte, k int, tryEnq func(uint32) error, tryDeq func() (uint32, error)) {
	t.Helper()
	ref := spec.NewQueue[uint32](k)
	for i := 0; i+1 < len(data); i += 2 {
		if data[i]%2 == 0 {
			v := uint32(data[i+1])
			err := tryEnq(v)
			if ref.Enqueue(v) {
				if err != nil {
					t.Fatalf("op %d: enq(%d) = %v, spec accepted", i, v, err)
				}
			} else if !errors.Is(err, ErrFull) {
				t.Fatalf("op %d: enq(%d) = %v, spec reports full", i, v, err)
			}
		} else {
			v, err := tryDeq()
			want, ok := ref.Dequeue()
			if ok {
				if err != nil || v != want {
					t.Fatalf("op %d: deq = (%d, %v), spec has %d", i, v, err, want)
				}
			} else if !errors.Is(err, ErrEmpty) {
				t.Fatalf("op %d: deq = (%d, %v), spec reports empty", i, v, err)
			}
		}
	}
}

// ringCapacity maps a fuzzed byte to a ring capacity: every k in
// 1..40, or 1024, objbench's.
func ringCapacity(b uint8) int {
	if k := int(b % 41); k > 0 {
		return k
	}
	return 1024
}

// addRingSeeds adds one seed at each of a few capacities, odd and
// even, below and above a line of slots, and objbench's 1024. Each
// seed fills its ring, overfills it by one, drains it, then wraps it.
func addRingSeeds(f *testing.F) {
	lap := func(k int) []byte { // fill k, drain k, then wrap by two
		var ops []byte
		for i := 0; i < k; i++ {
			ops = append(ops, 0, byte(i))
		}
		ops = append(ops, 0, 99) // full
		for i := 0; i < k; i++ {
			ops = append(ops, 1, 0)
		}
		return append(ops, 1, 0, 0, 7, 0, 8, 1, 0, 1, 0, 1, 0) // empty, then wrap
	}
	for _, k := range []uint8{5, 18, 27, 36} {
		f.Add(k, lap(int(k)))
	}
	f.Add(uint8(0), []byte{0, 1, 0, 2, 1, 0, 0, 3, 1, 0, 1, 0, 1, 0}) // k = 1024
}

func FuzzAbortableQueueVsSpec(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add(uint8(4), []byte{0, 9, 0, 8, 0, 7, 0, 6, 1, 0, 0, 5})
	addRingSeeds(f)
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		k := ringCapacity(kb)
		q := NewAbortable[uint32](k)
		interpretQueueOps(t, data, k, q.TryEnqueue, q.TryDequeue)
	})
}

func FuzzPackedQueueVsSpec(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 0, 0, 2, 1, 0})
	addRingSeeds(f)
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		k := ringCapacity(kb)
		q := NewPacked(k)
		interpretQueueOps(t, data, k, q.TryEnqueue, q.TryDequeue)
	})
}

func FuzzCombiningQueueVsSpec(f *testing.F) {
	// Drive the contended entry points: a solo run of Enqueue/Dequeue
	// never leaves the fast path (covered by
	// TestCombiningQueueMatchesSpecSolo), so this target forces every
	// op through publish + combine.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		q := NewCombining[uint32](k, 1)
		interpretQueueOps(t, data, k,
			func(v uint32) error { return q.EnqueueContended(0, v) },
			func() (uint32, error) { return q.DequeueContended(0) })
	})
}

func FuzzAbortableStringQueueVsSpec(f *testing.F) {
	// FuzzAbortableQueueVsSpec at a pointer-carrying T: every enqueued
	// string lives in a ring cell, so a cell written, read or cleared
	// out of turn shows up as a wrong value here.
	f.Add(uint8(4), []byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add(uint8(4), []byte{0, 9, 0, 8, 0, 7, 0, 6, 1, 0, 0, 5})
	addRingSeeds(f)
	f.Fuzz(func(t *testing.T, kb uint8, data []byte) {
		k := ringCapacity(kb)
		q := NewAbortable[string](k)
		interpretQueueOps(t, data, k,
			func(v uint32) error { return q.TryEnqueue(strconv.FormatUint(uint64(v), 10)) },
			func() (uint32, error) {
				s, err := q.TryDequeue()
				if err != nil {
					return 0, err
				}
				v, perr := strconv.ParseUint(s, 10, 32)
				if perr != nil {
					t.Fatalf("dequeued %q: %v", s, perr)
				}
				return uint32(v), nil
			})
	})
}

func FuzzMichaelScottVsSpec(f *testing.F) {
	// Solo cross-check of the Michael-Scott queue at a pointer-free T,
	// next to the string-valued FuzzMichaelScottPooledVsSpec below.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewMichaelScott[uint32](1)
		ref := spec.NewQueue[uint32](1 << 20) // effectively unbounded
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]%2 == 0 {
				v := uint32(data[i+1])
				if err := q.Enqueue(0, v); err != nil {
					t.Fatalf("op %d: enq(%d) = %v", i, v, err)
				}
				ref.Enqueue(v)
			} else {
				v, err := q.Dequeue(0)
				want, ok := ref.Dequeue()
				if ok {
					if err != nil || v != want {
						t.Fatalf("op %d: deq = (%d, %v), spec has %d", i, v, err, want)
					}
				} else if !errors.Is(err, ErrEmpty) {
					t.Fatalf("op %d: deq = (%d, %v), spec reports empty", i, v, err)
				}
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("final length %d, spec %d", q.Len(), ref.Len())
		}
	})
}

func FuzzMichaelScottPooledVsSpec(f *testing.F) {
	// Solo cross-check of the recycled-node queue against the spec at a
	// pointer-carrying T: the single-pid pool maximizes same-address
	// reuse (every retired dummy comes straight back on the next
	// enqueue), so any tag mistake in the counted-pointer protocol
	// corrupts the FIFO order here, and a value read or cleared out of
	// turn shows up as a wrong string.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 1, 0, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 1 << 20 // effectively unbounded
		q := NewMichaelScott[string](1)
		enqueued := 0
		interpretQueueOps(t, data, k,
			func(v uint32) error {
				enqueued++
				return q.Enqueue(0, strconv.FormatUint(uint64(v), 10))
			},
			func() (uint32, error) {
				s, err := q.Dequeue(0)
				if err != nil {
					return 0, err
				}
				enqueued--
				v, perr := strconv.ParseUint(s, 10, 32)
				if perr != nil {
					t.Fatalf("dequeued %q: %v", s, perr)
				}
				return uint32(v), nil
			})
		if q.Len() != enqueued {
			t.Fatalf("final length %d, want %d", q.Len(), enqueued)
		}
	})
}

func FuzzShardedQueueVsSpec(f *testing.F) {
	// K=1 keeps the global FIFO spec exact (striping relaxes it).
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		q := NewSharded[uint32](k, 1, 1)
		interpretQueueOps(t, data, k,
			func(v uint32) error { return q.Enqueue(0, v) },
			func() (uint32, error) { return q.Dequeue(0) })
	})
}
