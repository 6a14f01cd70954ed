package queue

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"weak"

	"repro/internal/spec"
)

func TestMichaelScottPooledFIFOSolo(t *testing.T) {
	q := NewMichaelScott[uint64](1)
	ref := spec.NewQueue[uint64](1 << 30)
	for i := 0; i < 5000; i++ {
		if i%3 != 1 {
			v := uint64(i)
			_ = q.Enqueue(0, v)
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
	q := NewMichaelScott[uint64](8)
	qconserved(t, 4, 4, stressN(3000), q.Enqueue, q.Dequeue)
}

// TestMichaelScottPooledForcedReuseABA keeps the queue near-empty —
// every worker dequeues right after it enqueues, so the retired dummy
// is recycled on almost every operation: the §2.2 window at maximum
// pressure. Conservation proves the tags held (a single wrongly
// successful stale CAS would duplicate or lose a value).
func TestMichaelScottPooledForcedReuseABA(t *testing.T) {
	procs, perProc := 4, stressN(5000)
	q := NewMichaelScott[uint64](procs)
	var wg sync.WaitGroup
	popped := make([][]uint64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				_ = q.Enqueue(pid, uint64(pid)<<32|uint64(i))
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
	q := NewMichaelScott[uint64](1)
	for i := uint64(0); i < 5; i++ {
		_ = q.Enqueue(0, i)
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

// record is a multi-word value with a pointer-carrying field: a value
// torn by a concurrent writer shows up as fields that disagree.
type record struct {
	a, b, c uint64
	s       string
}

func makeRecord(v uint64) record { return record{v, ^v, v * 7, strconv.FormatUint(v, 16)} }

// key returns the value the record was made from, reporting a torn
// record.
func (r record) key(t *testing.T) uint64 {
	if r.b != ^r.a || r.c != r.a*7 || r.s != strconv.FormatUint(r.a, 16) {
		t.Errorf("torn record %+v", r)
	}
	return r.a
}

// TestMichaelScottConservesRecords runs the conservation and
// per-producer FIFO workload at a multi-word T. A value is read only
// by the dequeuer whose head CAS made its node the dummy, and the node
// stays out of the pool until that dequeuer has released it: under
// -race a node recycled (and its value rewritten) while the consumer
// still reads it is a data race, and the torn record a failed check.
// The budget keeps a floor under -short, where the race job runs it.
func TestMichaelScottConservesRecords(t *testing.T) {
	q := NewMichaelScott[record](8)
	qconserved(t, 4, 4, max(stressN(20000), 5000),
		func(pid int, v uint64) error { return q.Enqueue(pid, makeRecord(v)) },
		func(pid int) (uint64, error) {
			r, err := q.Dequeue(pid)
			if err != nil {
				return 0, err
			}
			return r.key(t), nil
		},
	)
}

// enqueueFreshMS is enqueueFresh for the Michael-Scott queue.
//
//go:noinline
func enqueueFreshMS(t *testing.T, q *MichaelScott[*[64]byte]) weak.Pointer[[64]byte] {
	p := new([64]byte)
	if err := q.Enqueue(0, p); err != nil {
		t.Fatal(err)
	}
	return weak.Make(p)
}

// TestMichaelScottDequeueReleasesValue checks that the queue does not
// retain what it handed out: the dequeued value's node stays linked as
// the dummy, but the value itself must be collectable.
func TestMichaelScottDequeueReleasesValue(t *testing.T) {
	q := NewMichaelScott[*[64]byte](1)
	first := enqueueFreshMS(t, q)
	queued := enqueueFreshMS(t, q)
	if p, err := q.Dequeue(0); err != nil || p != first.Value() {
		t.Fatalf("dequeue = (%p, %v), want the first record", p, err)
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("a dequeued value is still reachable from the queue")
	}
	if queued.Value() == nil {
		t.Fatal("a queued value was collected")
	}
	runtime.KeepAlive(q)
}

// TestMichaelScottSoloAllocFree pins a solo enqueue+dequeue at 0
// allocations.
func TestMichaelScottSoloAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	q := NewMichaelScott[uint64](1)
	if n := testing.AllocsPerRun(1000, func() {
		_ = q.Enqueue(0, 7)
		_, _ = q.Dequeue(0)
	}); n != 0 {
		t.Errorf("solo enqueue+dequeue = %v allocs, want 0", n)
	}
}

func BenchmarkMichaelScottSolo(b *testing.B) {
	b.ReportAllocs()
	q := NewMichaelScott[uint64](1)
	for i := 0; i < b.N; i++ {
		_ = q.Enqueue(0, uint64(i))
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
