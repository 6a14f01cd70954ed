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

func FuzzAbortableQueueVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		q := NewAbortable[uint32](k)
		interpretQueueOps(t, data, k, q.TryEnqueue, q.TryDequeue)
	})
}

func FuzzPackedQueueVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 3
		q := NewPacked(k)
		interpretQueueOps(t, data, k, q.TryEnqueue, q.TryDequeue)
	})
}

func FuzzMichaelScottVsSpec(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewMichaelScott[uint32]()
		ref := spec.NewQueue[uint32](1 << 20) // effectively unbounded
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]%2 == 0 {
				v := uint32(data[i+1])
				q.Enqueue(v)
				ref.Enqueue(v)
			} else {
				v, err := q.Dequeue()
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
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 0, 8, 0, 7, 0, 6, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
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

func FuzzMichaelScottPooledVsSpec(f *testing.F) {
	// Solo cross-check of the recycled-node queue against the spec: the
	// single-pid pool maximizes same-address reuse (every retired dummy
	// comes straight back on the next enqueue), so any tag mistake in
	// the counted-pointer protocol corrupts the FIFO order here.
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 1, 0, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewMichaelScottPooled(1)
		ref := spec.NewQueue[uint32](1 << 20) // effectively unbounded
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]%2 == 0 {
				v := uint32(data[i+1])
				q.Enqueue(0, uint64(v))
				ref.Enqueue(v)
			} else {
				v, err := q.Dequeue(0)
				want, ok := ref.Dequeue()
				if ok {
					if err != nil || uint32(v) != want {
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
