package queue

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lock"
)

// stressN scales a stress-test iteration budget: the full budget by
// default, a twentieth (min 100) under -short so `go test -short`
// finishes fast (the CI race job runs short; full budgets remain the
// local default).
func stressN(full int) int {
	if testing.Short() {
		if full /= 20; full < 100 {
			full = 100
		}
	}
	return full
}

// qconserved drives producers/consumers and verifies multiset
// conservation plus per-producer FIFO order of the dequeued values.
func qconserved(t *testing.T, producers, consumers, perProducer int,
	enq func(pid int, v uint64) error,
	deq func(pid int) (uint64, error),
) {
	t.Helper()
	total := producers * perProducer
	var consumed atomic.Int64
	got := make([][]uint64, consumers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := uint64(pid)<<32 | uint64(i)
				for {
					err := enq(pid, v)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrFull) {
						t.Errorf("enqueue = %v", err)
						return
					}
					runtime.Gosched() // full: let a dequeuer run
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			pid := producers + cid
			for consumed.Load() < int64(total) {
				v, err := deq(pid)
				if err != nil {
					if !errors.Is(err, ErrEmpty) {
						t.Errorf("dequeue = %v", err)
						return
					}
					runtime.Gosched() // empty: let a producer run
					continue
				}
				got[cid] = append(got[cid], v)
				consumed.Add(1)
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[uint64]int)
	for cid := range got {
		// Per-consumer, values from one producer must arrive in
		// enqueue order (FIFO restricted to a subsequence).
		last := make(map[uint64]uint64)
		for _, v := range got[cid] {
			seen[v]++
			prod, idx := v>>32, v&0xffffffff
			if prev, ok := last[prod]; ok && idx <= prev {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d", cid, prod, idx, prev)
			}
			last[prod] = idx
		}
	}
	if len(seen) != total {
		t.Fatalf("value set size = %d, want %d (lost values)", len(seen), total)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x observed %d times (duplicated)", v, n)
		}
	}
}

func TestNonBlockingQueueConserves(t *testing.T) {
	q := NewNonBlocking[uint64](32)
	qconserved(t, 4, 4, stressN(3000),
		func(_ int, v uint64) error { return q.Enqueue(v) },
		func(_ int) (uint64, error) { return q.Dequeue() },
	)
}

func TestSensitiveQueueConserves(t *testing.T) {
	const producers, consumers = 4, 4
	q := NewSensitive[uint64](32, producers+consumers)
	qconserved(t, producers, consumers, stressN(2500), q.Enqueue, q.Dequeue)
	if st := q.Guard().Stats(); st.Fast+st.Slow == 0 {
		t.Fatal("guard saw no operations")
	}
}

func TestSensitiveQueueTicketLockConserves(t *testing.T) {
	q := NewSensitiveFrom[uint64](NewAbortable[uint64](16), 6, lock.IgnorePid(lock.NewTicket()))
	qconserved(t, 3, 3, stressN(2000), q.Enqueue, q.Dequeue)
}

func TestLockBasedQueueConserves(t *testing.T) {
	const producers, consumers = 4, 4
	q := NewLockBasedWith[uint64](32, lock.NewRoundRobin(lock.NewTAS(), producers+consumers))
	qconserved(t, producers, consumers, stressN(2500), q.Enqueue, q.Dequeue)
}

func TestMichaelScottConserves(t *testing.T) {
	q := NewMichaelScott[uint64](8)
	qconserved(t, 4, 4, stressN(3000), q.Enqueue, q.Dequeue)
}

func TestAbortableSingleSlotQueueConcurrent(t *testing.T) {
	// Capacity 1 maximizes interference on a single slot.
	q := NewNonBlocking[uint64](1)
	qconserved(t, 2, 2, stressN(2000),
		func(_ int, v uint64) error { return q.Enqueue(v) },
		func(_ int) (uint64, error) { return q.Dequeue() },
	)
}

func TestNonInterferenceEnqDeqDisjointEnds(t *testing.T) {
	// The paper's §1.1 motivation: enqueue and dequeue on a non-empty,
	// non-full queue touch disjoint ends. One enqueuer and one
	// dequeuer are paced to stay in disjoint regions of the ring (the
	// dequeuer holds off while the backlog is small, the enqueuer
	// while it is large); their weak operations then touch no common
	// register and should essentially never abort. We assert a loose
	// bound (< 1% aborts) rather than zero because the pacing reads
	// are themselves racy.
	q := NewAbortable[uint64](1024)
	for i := uint64(0); i < 512; i++ {
		if err := q.TryEnqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	opsPerSide := stressN(100000)
	var enqAborts, deqAborts atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		done := 0
		for done < opsPerSide {
			if q.Len() > 896 {
				continue // let the dequeuer catch up
			}
			if err := q.TryEnqueue(uint64(done)); errors.Is(err, ErrAborted) {
				enqAborts.Add(1)
			} else {
				done++
			}
		}
	}()
	go func() {
		defer wg.Done()
		done := 0
		for done < opsPerSide {
			if q.Len() < 128 {
				continue // stay away from the enqueue frontier
			}
			if _, err := q.TryDequeue(); errors.Is(err, ErrAborted) {
				deqAborts.Add(1)
			} else {
				done++
			}
		}
	}()
	wg.Wait()
	if a := enqAborts.Load(); a > int64(opsPerSide/100) {
		t.Fatalf("enqueue aborted %d/%d times against a disjoint dequeuer", a, opsPerSide)
	}
	if a := deqAborts.Load(); a > int64(opsPerSide/100) {
		t.Fatalf("dequeue aborted %d/%d times against a disjoint enqueuer", a, opsPerSide)
	}
}
