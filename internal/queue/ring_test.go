package queue

import (
	"errors"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
)

// The abortable ring keeps values in place: these tests pin the three
// consequences — plain cells stay race-free at any T, a dequeued value
// is no longer reachable from the ring, and the ring-backed queues
// allocate nothing per operation.

// TestAbortableConservesPointers runs the conservation workload at a
// pointer-carrying T. Under -race a cell read or written outside the
// order the slot sequence publishes is reported as a data race.
func TestAbortableConservesPointers(t *testing.T) {
	q := NewAbortable[*uint64](32)
	qconserved(t, 4, 4, stressN(2000),
		func(_ int, v uint64) error {
			return core.Retry(nil, func() (error, bool) {
				err := q.TryEnqueue(&v)
				return err, !errors.Is(err, ErrAborted)
			})
		},
		func(_ int) (uint64, error) {
			type res struct {
				p   *uint64
				err error
			}
			r := core.Retry(nil, func() (res, bool) {
				p, err := q.TryDequeue()
				return res{p, err}, !errors.Is(err, ErrAborted)
			})
			if r.err != nil {
				return 0, r.err
			}
			return *r.p, nil
		},
	)
}

// enqueueFresh enqueues a freshly allocated record and returns only a
// weak pointer to it, so no strong reference outlives the call except
// the ring's own.
//
//go:noinline
func enqueueFresh(t *testing.T, q *Abortable[*[64]byte]) weak.Pointer[[64]byte] {
	p := new([64]byte)
	if err := q.TryEnqueue(p); err != nil {
		t.Fatal(err)
	}
	return weak.Make(p)
}

// TestAbortableDequeueReleasesValue checks that the ring does not
// retain what it handed out: once dequeued (and dropped by the
// caller), a value must be collectable. A dequeue that left the cell
// set would keep it reachable for a whole lap.
func TestAbortableDequeueReleasesValue(t *testing.T) {
	q := NewAbortable[*[64]byte](4)
	kept := enqueueFresh(t, q)
	released := enqueueFresh(t, q)
	if p, err := q.TryDequeue(); err != nil || p != kept.Value() {
		t.Fatalf("dequeue = (%p, %v), want the first record", p, err)
	}
	runtime.GC()
	if kept.Value() != nil {
		t.Fatal("a dequeued value is still reachable from the ring")
	}
	if released.Value() == nil {
		t.Fatal("a queued value was collected")
	}
	runtime.KeepAlive(q)
}

// TestRingQueuesSoloAllocFree pins a solo enqueue+dequeue at 0
// allocations on the ring and on the strong queues built over it.
func TestRingQueuesSoloAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ab := NewAbortable[uint64](16)
	se := NewSensitive[uint64](16, 1)
	nb := NewNonBlocking[uint64](16)
	co := NewCombining[uint64](16, 1)
	for name, op := range map[string]func(){
		"abortable": func() {
			_ = ab.TryEnqueue(7)
			_, _ = ab.TryDequeue()
		},
		"sensitive": func() {
			_ = se.Enqueue(0, 7)
			_, _ = se.Dequeue(0)
		},
		"non-blocking": func() {
			_ = nb.Enqueue(7)
			_, _ = nb.Dequeue()
		},
		"combining": func() {
			_ = co.Enqueue(0, 7)
			_, _ = co.Dequeue(0)
		},
	} {
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("%s: solo enqueue+dequeue = %v allocs, want 0", name, n)
		}
	}
}
