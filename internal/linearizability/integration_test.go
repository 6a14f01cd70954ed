package linearizability_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	lin "repro/internal/linearizability"
	"repro/internal/queue"
	"repro/internal/stack"
)

// recordStackRounds runs rounds of concurrent bursts against pid-aware
// push/pop callbacks. Between rounds all goroutines join, so the
// recorded history has quiescent cuts and CheckSegmented stays exact.
func recordStackRounds(t *testing.T, procs, rounds, opsPerRound int, seed int64,
	push func(pid int, v uint64) error,
	pop func(pid int) (uint64, error),
	full, empty, aborted error,
) []lin.Op {
	t.Helper()
	r := lin.NewRecorder(procs)
	next := uint64(1)
	var mu sync.Mutex
	fresh := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerRound; i++ {
					if rng.Intn(2) == 0 {
						v := fresh()
						pend := r.Invoke(pid, "push", v)
						err := push(pid, v)
						switch {
						case err == nil:
							r.Return(pend, 0, lin.OutcomeOK)
						case errors.Is(err, full):
							r.Return(pend, 0, lin.OutcomeFull)
						case aborted != nil && errors.Is(err, aborted):
							r.Return(pend, 0, lin.OutcomeAborted)
						default:
							t.Errorf("push: %v", err)
						}
					} else {
						pend := r.Invoke(pid, "pop", 0)
						v, err := pop(pid)
						switch {
						case err == nil:
							r.Return(pend, v, lin.OutcomeOK)
						case errors.Is(err, empty):
							r.Return(pend, 0, lin.OutcomeEmpty)
						case aborted != nil && errors.Is(err, aborted):
							r.Return(pend, 0, lin.OutcomeAborted)
						default:
							t.Errorf("pop: %v", err)
						}
					}
				}
			}(p, seed+int64(round*procs+p))
		}
		wg.Wait()
	}
	return r.History()
}

func checkStackHistory(t *testing.T, name string, k int, h []lin.Op) {
	t.Helper()
	res := lin.CheckSegmented(lin.StackModel(k), h, 0, 0)
	if res.Exhausted {
		t.Fatalf("%s: check exhausted (%d states)", name, res.States)
	}
	if !res.Ok {
		t.Fatalf("%s: history of %d ops NOT linearizable", name, len(h))
	}
}

func TestSensitiveStackLinearizable(t *testing.T) {
	const procs, k = 4, 6
	for seed := int64(0); seed < 8; seed++ {
		s := stack.NewSensitive[uint64](k, procs)
		h := recordStackRounds(t, procs, 30, 4, seed,
			s.Push, s.Pop, stack.ErrFull, stack.ErrEmpty, nil)
		checkStackHistory(t, "sensitive", k, h)
	}
}

func TestNonBlockingStackLinearizable(t *testing.T) {
	const procs, k = 4, 6
	for seed := int64(100); seed < 108; seed++ {
		s := stack.NewNonBlocking[uint64](k, procs)
		h := recordStackRounds(t, procs, 30, 4, seed,
			s.Push, s.Pop,
			stack.ErrFull, stack.ErrEmpty, nil)
		checkStackHistory(t, "nonblocking", k, h)
	}
}

func TestAbortableStackWeakOpsLinearizable(t *testing.T) {
	// The weak stack's non-⊥ subhistory must be linearizable (§3's
	// linearization points). Aborted ops are dropped by the recorder.
	const procs, k = 4, 6
	for seed := int64(200); seed < 208; seed++ {
		s := stack.NewAbortable[uint64](k, procs)
		h := recordStackRounds(t, procs, 30, 4, seed,
			s.TryPush, s.TryPop,
			stack.ErrFull, stack.ErrEmpty, stack.ErrAborted)
		checkStackHistory(t, "abortable", k, h)
	}
}

func TestPackedStackWeakOpsLinearizable(t *testing.T) {
	const procs, k = 4, 6
	for seed := int64(300); seed < 308; seed++ {
		s := stack.NewPacked(k)
		h := recordStackRounds(t, procs, 30, 4, seed,
			func(pid int, v uint64) error { return s.TryPush(pid, uint32(v)) },
			func(pid int) (uint64, error) {
				v, err := s.TryPop(pid)
				return uint64(v), err
			},
			stack.ErrFull, stack.ErrEmpty, stack.ErrAborted)
		checkStackHistory(t, "packed", k, h)
	}
}

func TestTreiberStackLinearizable(t *testing.T) {
	const procs = 4
	for seed := int64(400); seed < 408; seed++ {
		s := stack.NewTreiber[uint64](procs)
		h := recordStackRounds(t, procs, 30, 4, seed,
			s.Push, s.Pop,
			stack.ErrFull, stack.ErrEmpty, nil)
		checkStackHistory(t, "treiber", 0, h)
	}
}

func TestLockBasedStackLinearizable(t *testing.T) {
	const procs, k = 4, 6
	for seed := int64(500); seed < 504; seed++ {
		s := stack.NewLockBased[uint64](k)
		h := recordStackRounds(t, procs, 20, 4, seed,
			s.Push, s.Pop, stack.ErrFull, stack.ErrEmpty, nil)
		checkStackHistory(t, "lockbased", k, h)
	}
}

// recordQueueRounds mirrors recordStackRounds for queues.
func recordQueueRounds(t *testing.T, procs, rounds, opsPerRound int, seed int64,
	enq func(pid int, v uint64) error,
	deq func(pid int) (uint64, error),
	full, empty, aborted error,
) []lin.Op {
	t.Helper()
	r := lin.NewRecorder(procs)
	next := uint64(1)
	var mu sync.Mutex
	fresh := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerRound; i++ {
					if rng.Intn(2) == 0 {
						v := fresh()
						pend := r.Invoke(pid, "enq", v)
						err := enq(pid, v)
						switch {
						case err == nil:
							r.Return(pend, 0, lin.OutcomeOK)
						case errors.Is(err, full):
							r.Return(pend, 0, lin.OutcomeFull)
						case aborted != nil && errors.Is(err, aborted):
							r.Return(pend, 0, lin.OutcomeAborted)
						default:
							t.Errorf("enq: %v", err)
						}
					} else {
						pend := r.Invoke(pid, "deq", 0)
						v, err := deq(pid)
						switch {
						case err == nil:
							r.Return(pend, v, lin.OutcomeOK)
						case errors.Is(err, empty):
							r.Return(pend, 0, lin.OutcomeEmpty)
						case aborted != nil && errors.Is(err, aborted):
							r.Return(pend, 0, lin.OutcomeAborted)
						default:
							t.Errorf("deq: %v", err)
						}
					}
				}
			}(p, seed+int64(round*procs+p))
		}
		wg.Wait()
	}
	return r.History()
}

func checkQueueHistory(t *testing.T, name string, k int, h []lin.Op) {
	t.Helper()
	res := lin.CheckSegmented(lin.QueueModel(k), h, 0, 0)
	if res.Exhausted {
		t.Fatalf("%s: check exhausted (%d states)", name, res.States)
	}
	if !res.Ok {
		t.Fatalf("%s: history of %d ops NOT linearizable", name, len(h))
	}
}

func TestAbortableQueueWeakOpsLinearizable(t *testing.T) {
	const procs, k = 4, 5
	for seed := int64(600); seed < 612; seed++ {
		q := queue.NewAbortable[uint64](k)
		h := recordQueueRounds(t, procs, 30, 4, seed,
			func(_ int, v uint64) error { return q.TryEnqueue(v) },
			func(_ int) (uint64, error) { return q.TryDequeue() },
			queue.ErrFull, queue.ErrEmpty, queue.ErrAborted)
		checkQueueHistory(t, "abortable-queue", k, h)
	}
}

func TestSensitiveQueueLinearizable(t *testing.T) {
	const procs, k = 4, 5
	for seed := int64(700); seed < 708; seed++ {
		q := queue.NewSensitive[uint64](k, procs)
		h := recordQueueRounds(t, procs, 30, 4, seed,
			q.Enqueue, q.Dequeue, queue.ErrFull, queue.ErrEmpty, nil)
		checkQueueHistory(t, "sensitive-queue", k, h)
	}
}

func TestMichaelScottLinearizable(t *testing.T) {
	const procs = 4
	for seed := int64(800); seed < 808; seed++ {
		q := queue.NewMichaelScott[uint64](procs)
		h := recordQueueRounds(t, procs, 30, 4, seed,
			q.Enqueue, q.Dequeue,
			queue.ErrFull, queue.ErrEmpty, nil)
		checkQueueHistory(t, "michael-scott", 0, h)
	}
}
