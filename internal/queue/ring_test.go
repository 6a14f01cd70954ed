package queue

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/memory"
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

// TestRingLayout pins where the ring queues' registers live (DESIGN
// §2). HEAD and TAIL sit at least 64 B (word start to word start) from
// each other and from the words outside their allocation; fields are
// word-aligned, so they never share a 64-byte line at any allocation
// offset. The ticket map is a bijection on [0, k), ticket pos+k shares
// pos's slot, and every slot starts free for its lap-0 ticket. The
// offsets are read through reflect because contlint's mixedatomic pass
// flags unsafe.Offsetof on atomics.
func TestRingLayout(t *testing.T) {
	typ := reflect.TypeFor[ringEnds]()
	var names []string
	var offs []uintptr
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			names = append(names, f.Name)
			offs = append(offs, f.Offset)
		}
	}
	if want := []string{"head", "tail"}; !slices.Equal(names, want) {
		t.Fatalf("ringEnds registers = %v, want %v", names, want)
	}
	last := func(off uintptr) uintptr { // offset of a Word's last 8 bytes
		return off + reflect.TypeFor[memory.Word]().Size() - 8
	}
	if offs[0] < 64 {
		t.Errorf("HEAD starts %d B into the allocation, want >= 64", offs[0])
	}
	if d := offs[1] - last(offs[0]); d < 64 {
		t.Errorf("TAIL starts %d B after HEAD's last word, want >= 64", d)
	}
	if d := typ.Size() - last(offs[1]); d < 64 {
		t.Errorf("the next allocation starts %d B after TAIL's last word, want >= 64", d)
	}

	for k := 1; k <= 1100; k++ {
		r := newRing(k, nil)
		seen := make([]bool, k)
		for pos := uint64(0); pos < uint64(k); pos++ {
			j := r.slot(pos)
			if j < 0 || j >= k || seen[j] {
				t.Fatalf("k=%d: ticket %d maps to slot %d, out of range or taken", k, pos, j)
			}
			seen[j] = true
			for _, lap := range []uint64{1, 2, 1 << 40} {
				if got := r.slot(pos + lap*uint64(k)); got != j {
					t.Fatalf("k=%d: ticket %d maps to slot %d, ticket %d to %d", k, pos+lap*uint64(k), got, pos, j)
				}
			}
		}

		q, p := NewAbortable[uint64](k), NewPacked(k)
		for pos := uint64(0); pos < uint64(k); pos++ {
			if got := q.seqs.Read(q.slot(pos)); got != 2*pos {
				t.Fatalf("k=%d: Abortable's slot for ticket %d starts at seq %d, want %d", k, pos, got, 2*pos)
			}
			if _, got := unpackSlot(p.slots.Read(p.slot(pos))); got != uint32(2*pos) {
				t.Fatalf("k=%d: Packed's slot for ticket %d starts at seq %d, want %d", k, pos, got, 2*pos)
			}
		}
	}
}

// BenchmarkAbortableQueueSPSC runs one producer and one consumer on an
// abortable ring of 1024; an iteration is one element through the
// ring. A consumer trailing its producer reads slots the producer
// wrote a moment before, so this is the traffic that keeps
// consecutive tickets on shared lines (see ring).
func BenchmarkAbortableQueueSPSC(b *testing.B) {
	b.ReportAllocs()
	q := NewAbortable[uint64](1024)
	done := make(chan struct{})
	b.ResetTimer()
	go func() {
		defer close(done)
		for n := 0; n < b.N; {
			if _, err := q.TryDequeue(); err == nil {
				n++
			}
		}
	}()
	for i := 0; i < b.N; {
		if q.TryEnqueue(uint64(i)) == nil {
			i++
		}
	}
	<-done
}
