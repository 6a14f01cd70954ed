package queue

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestCombiningQueueMatchesSpecSolo(t *testing.T) {
	const k = 4
	q := NewCombining[uint32](k, 1)
	// Fill past capacity, drain past empty, interleave.
	tape := []byte{
		0, 1, 0, 2, 0, 3, 0, 4, 0, 5, // enqueues 1-5 (5th hits full)
		1, 0, 1, 0, 1, 0, 1, 0, 1, 0, // dequeues past empty
		0, 7, 1, 0, 0, 8, 0, 9, 1, 0,
	}
	interpretQueueOps(t, tape, k,
		func(v uint32) error { return q.Enqueue(0, v) },
		func() (uint32, error) { return q.Dequeue(0) })
	if st := q.Stats(); st.Published != 0 {
		t.Fatalf("solo run published %d requests", st.Published)
	}
}

func TestCombiningQueueConserves(t *testing.T) {
	producers, consumers, perProducer := 4, 4, stressN(3000)
	q := NewCombining[uint64](64, producers+consumers)
	qconserved(t, producers, consumers, perProducer, q.Enqueue, q.Dequeue)
	st := q.Stats()
	if st.Fast+st.Published == 0 {
		t.Fatal("core saw no operations")
	}
	if st.Served != st.Published {
		t.Fatalf("Served = %d, Published = %d", st.Served, st.Published)
	}
}

// TestCombiningQueueOversubscribed runs four workers per P on the
// combining queue, half producers and half consumers. The shortcut's
// re-attempts do not yield, so a process descheduled mid-operation
// must not starve the others: the bounded attempts still publish, and
// the combiner's failed applies yield. Conservation and per-producer
// order must hold. CI runs it at -cpu 1,2.
func TestCombiningQueueOversubscribed(t *testing.T) {
	half, perProducer := 2*runtime.GOMAXPROCS(0), stressN(2000)
	q := NewCombining[uint64](64, 2*half)
	done := make(chan struct{})
	go func() {
		defer close(done)
		qconserved(t, half, half, perProducer, q.Enqueue, q.Dequeue)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d workers not done after 30s at GOMAXPROCS %d", 2*half, runtime.GOMAXPROCS(0))
	}
	if st := q.Stats(); st.Served != st.Published {
		t.Fatalf("Served = %d, Published = %d", st.Served, st.Published)
	}
}

func TestCombiningQueueFastPathDominatesWhenSolo(t *testing.T) {
	q := NewCombining[int](16, 4)
	for i := 0; i < 1000; i++ {
		if err := q.Enqueue(0, i); err != nil && !errors.Is(err, ErrFull) {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := q.Dequeue(0); err != nil && !errors.Is(err, ErrEmpty) {
				t.Fatal(err)
			}
		}
	}
	if st := q.Stats(); st.Published != 0 {
		t.Fatalf("solo run took the publication path %d times", st.Published)
	}
}

func TestCombiningQueueCapacityAndLen(t *testing.T) {
	q := NewCombining[int](3, 2)
	if got := q.Capacity(); got != 3 {
		t.Fatalf("Capacity = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := q.Enqueue(0, 99); !errors.Is(err, ErrFull) {
		t.Fatalf("enqueue on full = %v, want ErrFull", err)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// BenchmarkCombiningQueueContended is objbench's queue-contended at the
// algorithm layer: GOMAXPROCS workers with distinct pids run a 50/50
// enqueue/dequeue mix on one flat-combining queue of capacity 1024,
// prefilled with 512.
func BenchmarkCombiningQueueContended(b *testing.B) {
	b.ReportAllocs()
	const k = 1024
	q := NewCombining[uint64](k, runtime.GOMAXPROCS(0))
	for i := range k / 2 {
		_ = q.Enqueue(0, uint64(i))
	}
	var pids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1) - 1)
		x := uint64(pid+1) * 0x9e3779b97f4a7c15 // xorshift64 state
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				_ = q.Enqueue(pid, x)
			} else {
				_, _ = q.Dequeue(pid)
			}
		}
	})
}
