package queue

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/spec"
)

func TestMichaelScottPooledFIFOSolo(t *testing.T) {
	q := NewMichaelScottPooled(1)
	ref := spec.NewQueue[uint64](1 << 30)
	for i := 0; i < 5000; i++ {
		if i%3 != 1 {
			v := uint64(i)
			q.Enqueue(0, v)
			ref.Enqueue(v)
		} else {
			v, err := q.Dequeue(0)
			want, ok := ref.Dequeue()
			if ok {
				if err != nil || v != want {
					t.Fatalf("op %d: dequeue = (%d, %v), spec has %d", i, v, err, want)
				}
			} else if !errors.Is(err, ErrEmpty) {
				t.Fatalf("op %d: dequeue = (%d, %v), spec reports empty", i, v, err)
			}
		}
	}
	if st := q.PoolStats(); st.Reuses == 0 {
		t.Fatalf("solo churn never recycled a node: %+v", st)
	}
}

func TestMichaelScottPooledConserves(t *testing.T) {
	q := NewMichaelScottPooled(8)
	qconserved(t, 4, 4, stressN(3000),
		func(pid int, v uint64) error { q.Enqueue(pid, v); return nil },
		func(pid int) (uint64, error) { return q.Dequeue(pid) },
	)
}

// TestMichaelScottPooledForcedReuseABA keeps the queue near-empty —
// every worker dequeues right after it enqueues, so the retired dummy
// is recycled on almost every operation: the §2.2 window at maximum
// pressure. Conservation proves the tags held (a single wrongly
// successful stale CAS would duplicate or lose a value).
func TestMichaelScottPooledForcedReuseABA(t *testing.T) {
	procs, perProc := 4, stressN(5000)
	q := NewMichaelScottPooled(procs)
	var wg sync.WaitGroup
	popped := make([][]uint64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				q.Enqueue(pid, uint64(pid)<<32|uint64(i))
				if v, err := q.Dequeue(pid); err == nil {
					popped[pid] = append(popped[pid], v)
				}
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for {
		v, err := q.Dequeue(0)
		if err != nil {
			break
		}
		seen[v]++
	}
	if len(seen) != procs*perProc {
		t.Fatalf("value set size = %d, want %d (lost values)", len(seen), procs*perProc)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x observed %d times (duplicated)", v, n)
		}
	}
	st := q.PoolStats()
	if st.Reuses < st.Allocs {
		t.Fatalf("reuse did not dominate: %+v", st)
	}
	if st.Drops != 0 {
		t.Fatalf("pool dropped %d handles (overflow too small)", st.Drops)
	}
}

// The uint64 combining queue is the allocation-free ("pooled") rung of the
// ladder: its ring keeps values in place. A 32-cell ring under four
// producers and four consumers wraps many times, so every cell is reused.
func TestCombiningPooledQueueConserves(t *testing.T) {
	producers, consumers, perProducer := 4, 4, stressN(2500)
	q := NewCombining[uint64](32, producers+consumers)
	qconserved(t, producers, consumers, perProducer, q.Enqueue, q.Dequeue)
}

func TestMichaelScottPooledLen(t *testing.T) {
	q := NewMichaelScottPooled(1)
	for i := uint64(0); i < 5; i++ {
		q.Enqueue(0, i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := uint64(0); i < 5; i++ {
		v, err := q.Dequeue(0)
		if err != nil || v != i {
			t.Fatalf("dequeue %d = (%d, %v)", i, v, err)
		}
	}
	if _, err := q.Dequeue(0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("dequeue on empty = %v", err)
	}
}

func BenchmarkMichaelScottBoxedSolo(b *testing.B) {
	b.ReportAllocs()
	q := NewMichaelScott[uint64]()
	for i := 0; i < b.N; i++ {
		q.Enqueue(uint64(i))
		_, _ = q.Dequeue()
	}
}

func BenchmarkMichaelScottPooledSolo(b *testing.B) {
	b.ReportAllocs()
	q := NewMichaelScottPooled(1)
	for i := 0; i < b.N; i++ {
		q.Enqueue(0, uint64(i))
		_, _ = q.Dequeue(0)
	}
}

func BenchmarkAbortableQueueSolo(b *testing.B) {
	b.ReportAllocs()
	q := NewAbortable[uint64](16)
	for i := 0; i < b.N; i++ {
		_ = q.TryEnqueue(uint64(i))
		_, _ = q.TryDequeue()
	}
}
