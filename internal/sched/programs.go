package sched

import (
	"errors"
	"fmt"

	"repro/internal/deque"
	lin "repro/internal/linearizability"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/stack"
)

// StackOp is one planned weak stack operation for a model-checked run.
type StackOp struct {
	// Push selects weak_push (with Value) over weak_pop.
	Push bool
	// Value is the pushed value.
	Value uint64
}

// QueueOp is one planned weak queue operation for a model-checked run.
type QueueOp struct {
	// Enq selects a weak enqueue (with Value) over a weak dequeue.
	Enq bool
	// Value is the enqueued value.
	Value uint64
}

func stackOutcome(err error) string {
	switch {
	case err == nil:
		return lin.OutcomeOK
	case errors.Is(err, stack.ErrFull):
		return lin.OutcomeFull
	case errors.Is(err, stack.ErrEmpty):
		return lin.OutcomeEmpty
	case errors.Is(err, stack.ErrAborted):
		return lin.OutcomeAborted
	default:
		panic(err)
	}
}

func queueOutcome(err error) string {
	switch {
	case err == nil:
		return lin.OutcomeOK
	case errors.Is(err, queue.ErrFull):
		return lin.OutcomeFull
	case errors.Is(err, queue.ErrEmpty):
		return lin.OutcomeEmpty
	case errors.Is(err, queue.ErrAborted):
		return lin.OutcomeAborted
	default:
		panic(err)
	}
}

// weakStack is the common surface of the model-checked stacks. The
// operations take the calling pid: the pooled backends route node
// recycling through per-pid free lists; the others ignore it.
type weakStack interface {
	TryPush(pid int, v uint64) error
	TryPop(pid int) (uint64, error)
}

// pidlessStack adapts the pid-oblivious weak stacks.
type pidlessStack struct {
	s interface {
		TryPush(v uint64) error
		TryPop() (uint64, error)
	}
}

func (a pidlessStack) TryPush(_ int, v uint64) error { return a.s.TryPush(v) }
func (a pidlessStack) TryPop(_ int) (uint64, error)  { return a.s.TryPop() }

// packedAdapter lifts the uint32-valued packed stack to uint64.
type packedAdapter struct{ s *stack.Packed }

func (a packedAdapter) TryPush(v uint64) error { return a.s.TryPush(uint32(v)) }
func (a packedAdapter) TryPop() (uint64, error) {
	v, err := a.s.TryPop()
	return uint64(v), err
}

// StackBackend selects the implementation a stack Builder checks.
type StackBackend int

const (
	// Boxed is the Figure 1 stack on boxed registers.
	Boxed StackBackend = iota
	// PackedWords is the Figure 1 stack on bit-packed registers.
	PackedWords
	// NaiveABA is the deliberately untagged strawman of §2.2.
	NaiveABA
	// PooledTreiber is the Treiber stack over recycled pooled nodes
	// with a tagged head register.
	PooledTreiber
	// PooledAbortable is the Figure 1 stack over pooled, tagged
	// registers (validated-snapshot reads).
	PooledAbortable
)

// String names the backend.
func (b StackBackend) String() string {
	switch b {
	case Boxed:
		return "boxed"
	case PackedWords:
		return "packed"
	case NaiveABA:
		return "naive"
	case PooledTreiber:
		return "pooled-treiber"
	case PooledAbortable:
		return "pooled-abortable"
	default:
		return "unknown"
	}
}

// WeakStackBuilder returns a Builder that prefills a fresh stack of
// capacity k with initial (bottom first), runs the per-process plans
// as weak operations, and checks the recorded history against the
// sequential stack model. Aborted operations take no effect by the
// abortable-object contract, so they are dropped from the history; a
// backend that "aborts" an operation that *did* take effect (the ABA
// failure mode) is caught as a linearizability violation of the
// remaining history.
func WeakStackBuilder(backend StackBackend, k int, initial []uint64, plans [][]StackOp) Builder {
	return weakStackBuilder(backend, k, initial, plans, false)
}

// SoloNeverAborts is WeakStackBuilder for a single process whose check
// additionally fails if any operation returned ⊥: a solo weak
// operation must always succeed (claim A2, the obstruction-freedom of
// the abortable object).
func SoloNeverAborts(backend StackBackend, k int, initial []uint64, plan []StackOp) Builder {
	return weakStackBuilder(backend, k, initial, [][]StackOp{plan}, true)
}

func weakStackBuilder(backend StackBackend, k int, initial []uint64, plans [][]StackOp, forbidAborts bool) Builder {
	return weakStackBuilderPost(backend, k, initial, plans, forbidAborts, nil)
}

// newWeakStack builds the observed weak stack a backend selects, for
// procs processes (the pooled backends size their free lists by it).
func newWeakStack(backend StackBackend, k, procs int, obs memory.Observer) weakStack {
	switch backend {
	case Boxed:
		return pidlessStack{stack.NewAbortableObserved[uint64](k, obs)}
	case PackedWords:
		return pidlessStack{packedAdapter{stack.NewPackedObserved(k, obs)}}
	case NaiveABA:
		return pidlessStack{stack.NewNaiveObserved[uint64](k, obs)}
	case PooledTreiber:
		return stack.NewTreiberPooledObserved(max(procs, 1), obs)
	case PooledAbortable:
		return stack.NewAbortablePooledObserved(k, max(procs, 1), obs)
	default:
		panic("sched: unknown stack backend")
	}
}

// weakStackBuilderPost additionally runs post(s) during Check, after
// the linearizability verdict; the pooled ABA schedules use it to
// assert that node recycling actually occurred.
func weakStackBuilderPost(backend StackBackend, k int, initial []uint64, plans [][]StackOp, forbidAborts bool, post func(s weakStack) error) Builder {
	return func(obs memory.Observer) Run {
		s := newWeakStack(backend, k, len(plans), obs)
		for _, v := range initial {
			if err := s.TryPush(0, v); err != nil {
				panic(fmt.Sprintf("sched: prefill: %v", err))
			}
		}
		rec := lin.NewRecorder(len(plans))
		// The prefill is part of the object's initial state: replay
		// it as history ops that precede everything else.
		for _, v := range initial {
			pend := rec.Invoke(0, "push", v)
			rec.Return(pend, 0, lin.OutcomeOK)
		}
		ops := make([][]func(), len(plans))
		for pid, plan := range plans {
			for _, p := range plan {
				pid, p := pid, p
				if p.Push {
					ops[pid] = append(ops[pid], func() {
						pend := rec.Invoke(pid, "push", p.Value)
						err := s.TryPush(pid, p.Value)
						rec.Return(pend, 0, stackOutcome(err))
					})
				} else {
					ops[pid] = append(ops[pid], func() {
						pend := rec.Invoke(pid, "pop", 0)
						v, err := s.TryPop(pid)
						rec.Return(pend, v, stackOutcome(err))
					})
				}
			}
		}
		return Run{Ops: ops, Check: func() error {
			if forbidAborts {
				if n := rec.Aborts(); n > 0 {
					return fmt.Errorf("%d solo weak operation(s) aborted", n)
				}
			}
			h := rec.History()
			res := lin.Check(lin.StackModel(k), h, 0)
			if res.Exhausted {
				return fmt.Errorf("sched: linearizability check exhausted")
			}
			if !res.Ok {
				return fmt.Errorf("history not linearizable: %v", h)
			}
			if post != nil {
				return post(s)
			}
			return nil
		}}
	}
}

// weakQueue is the common surface of the model-checked queues. The
// operations take the calling pid (used by the pooled backend's free
// lists, ignored elsewhere).
type weakQueue interface {
	TryEnqueue(pid int, v uint64) error
	TryDequeue(pid int) (uint64, error)
}

// pidlessQueue adapts the pid-oblivious weak queues.
type pidlessQueue struct {
	q interface {
		TryEnqueue(v uint64) error
		TryDequeue() (uint64, error)
	}
}

func (a pidlessQueue) TryEnqueue(_ int, v uint64) error { return a.q.TryEnqueue(v) }
func (a pidlessQueue) TryDequeue(_ int) (uint64, error) { return a.q.TryDequeue() }

// packedQueueAdapter lifts the uint32-valued packed queue to uint64.
type packedQueueAdapter struct{ q *queue.Packed }

func (a packedQueueAdapter) TryEnqueue(v uint64) error { return a.q.TryEnqueue(uint32(v)) }
func (a packedQueueAdapter) TryDequeue() (uint64, error) {
	v, err := a.q.TryDequeue()
	return uint64(v), err
}

// pooledMSAdapter fits the pooled Michael-Scott queue to the weakQueue
// shape. Its operations are strong (they retry internally and never
// abort), so the "weak" enqueue always returns nil.
type pooledMSAdapter struct{ q *queue.MichaelScottPooled }

func (a pooledMSAdapter) TryEnqueue(pid int, v uint64) error { a.q.Enqueue(pid, v); return nil }
func (a pooledMSAdapter) TryDequeue(pid int) (uint64, error) { return a.q.Dequeue(pid) }

// QueueBackend selects the implementation a queue Builder checks.
type QueueBackend int

const (
	// BoxedQueue is the generic abortable ring queue, its values in
	// place in the ring's cells (the name predates that layout).
	BoxedQueue QueueBackend = iota
	// PackedQueue is the abortable ring queue on bit-packed registers.
	PackedQueue
	// PooledMSQueue is the Michael-Scott queue over recycled pooled
	// nodes with tagged head/tail registers (k is ignored: unbounded).
	PooledMSQueue
)

// String names the backend.
func (b QueueBackend) String() string {
	switch b {
	case BoxedQueue:
		return "boxed"
	case PackedQueue:
		return "packed"
	case PooledMSQueue:
		return "pooled-ms"
	default:
		return "unknown"
	}
}

// WeakQueueBuilder is WeakStackBuilder's FIFO sibling over the
// generic abortable bounded queue.
func WeakQueueBuilder(k int, initial []uint64, plans [][]QueueOp) Builder {
	return weakQueueBuilder(BoxedQueue, k, initial, plans, nil)
}

// WeakPackedQueueBuilder model-checks the packed queue backend.
func WeakPackedQueueBuilder(k int, initial []uint64, plans [][]QueueOp) Builder {
	return weakQueueBuilder(PackedQueue, k, initial, plans, nil)
}

// WeakPooledMSQueueBuilder model-checks the pooled Michael-Scott
// queue (unbounded; k only bounds the linearizability model, pass 0).
func WeakPooledMSQueueBuilder(initial []uint64, plans [][]QueueOp) Builder {
	return weakQueueBuilder(PooledMSQueue, 0, initial, plans, nil)
}

func weakQueueBuilder(backend QueueBackend, k int, initial []uint64, plans [][]QueueOp, post func(q weakQueue) error) Builder {
	return func(obs memory.Observer) Run {
		var q weakQueue
		switch backend {
		case BoxedQueue:
			q = pidlessQueue{queue.NewAbortableObserved[uint64](k, obs)}
		case PackedQueue:
			q = pidlessQueue{packedQueueAdapter{queue.NewPackedObserved(k, obs)}}
		case PooledMSQueue:
			q = pooledMSAdapter{queue.NewMichaelScottPooledObserved(max(len(plans), 1), obs)}
		default:
			panic("sched: unknown queue backend")
		}
		for _, v := range initial {
			if err := q.TryEnqueue(0, v); err != nil {
				panic(fmt.Sprintf("sched: prefill: %v", err))
			}
		}
		rec := lin.NewRecorder(len(plans))
		for _, v := range initial {
			pend := rec.Invoke(0, "enq", v)
			rec.Return(pend, 0, lin.OutcomeOK)
		}
		ops := make([][]func(), len(plans))
		for pid, plan := range plans {
			for _, p := range plan {
				pid, p := pid, p
				if p.Enq {
					ops[pid] = append(ops[pid], func() {
						pend := rec.Invoke(pid, "enq", p.Value)
						err := q.TryEnqueue(pid, p.Value)
						rec.Return(pend, 0, queueOutcome(err))
					})
				} else {
					ops[pid] = append(ops[pid], func() {
						pend := rec.Invoke(pid, "deq", 0)
						v, err := q.TryDequeue(pid)
						rec.Return(pend, v, queueOutcome(err))
					})
				}
			}
		}
		return Run{Ops: ops, Check: func() error {
			h := rec.History()
			res := lin.Check(lin.QueueModel(k), h, 0)
			if res.Exhausted {
				return fmt.Errorf("sched: linearizability check exhausted")
			}
			if !res.Ok {
				return fmt.Errorf("history not linearizable: %v", h)
			}
			if post != nil {
				return post(q)
			}
			return nil
		}}
	}
}

// DequeOp is one planned weak deque operation for a model-checked run.
type DequeOp struct {
	// Kind is one of "pushl", "pushr", "popl", "popr".
	Kind string
	// Value is the pushed value (push kinds only).
	Value uint64
}

func dequeOutcome(err error) string {
	switch {
	case err == nil:
		return lin.OutcomeOK
	case errors.Is(err, deque.ErrFull):
		return lin.OutcomeFull
	case errors.Is(err, deque.ErrEmpty):
		return lin.OutcomeEmpty
	case errors.Is(err, deque.ErrAborted):
		return lin.OutcomeAborted
	default:
		panic(err)
	}
}

// WeakDequeBuilder model-checks the HLM abortable deque of capacity
// k: prefill with rightward pushes of initial, run the per-process
// plans, check the recorded history against the deque model.
func WeakDequeBuilder(k int, initial []uint64, plans [][]DequeOp) Builder {
	return func(obs memory.Observer) Run {
		d := deque.NewAbortableObserved(k, obs)
		for _, v := range initial {
			if err := d.TryPushRight(uint32(v)); err != nil {
				panic(fmt.Sprintf("sched: prefill: %v", err))
			}
		}
		rec := lin.NewRecorder(len(plans))
		for _, v := range initial {
			pend := rec.Invoke(0, "pushr", v)
			rec.Return(pend, 0, lin.OutcomeOK)
		}
		ops := make([][]func(), len(plans))
		for pid, plan := range plans {
			for _, p := range plan {
				pid, p := pid, p
				ops[pid] = append(ops[pid], func() {
					pend := rec.Invoke(pid, p.Kind, p.Value)
					var v uint32
					var err error
					switch p.Kind {
					case "pushr":
						err = d.TryPushRight(uint32(p.Value))
					case "pushl":
						err = d.TryPushLeft(uint32(p.Value))
					case "popr":
						v, err = d.TryPopRight()
					case "popl":
						v, err = d.TryPopLeft()
					default:
						panic("sched: unknown deque op kind")
					}
					rec.Return(pend, uint64(v), dequeOutcome(err))
				})
			}
		}
		return Run{Ops: ops, Check: func() error {
			h := rec.History()
			res := lin.Check(lin.DequeModel(k), h, 0)
			if res.Exhausted {
				return fmt.Errorf("sched: linearizability check exhausted")
			}
			if !res.Ok {
				return fmt.Errorf("history not linearizable: %v", h)
			}
			return nil
		}}
	}
}

func sortOpsByCall(h []lin.Op) {
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && h[j].Call < h[j-1].Call; j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

// ABASchedule returns the builder and the handcrafted schedule that
// exhibit §2.2's ABA failure deterministically on the Naive stack
// (experiment E8): process 0 starts a pop of b from [a b], is
// preempted between its value read and its index CAS, while process 1
// pops b, pops a, then pushes x and y. Process 0's stale CAS then
// succeeds — it returns the already-popped b and the freshly pushed y
// is lost. The same schedule shape on the tagged backends fails the
// stale CAS instead, so their checks pass.
func ABASchedule(backend StackBackend) (Builder, []int) {
	build := WeakStackBuilder(backend, 4,
		[]uint64{10, 20}, // a=10, b=20
		[][]StackOp{
			{{Push: false}}, // p0: pop
			{ // p1: pop b, pop a, push x, push y
				{Push: false},
				{Push: false},
				{Push: true, Value: 30},
				{Push: true, Value: 40},
			},
		})
	// p0 performs its pop's accesses except the final CAS; p1 runs all
	// four operations to completion; p0 finishes. The access counts
	// are implementation-exact and verified by the sched tests:
	//
	//   naive:  p0 pop prefix = 2 (read TOP, read cell);
	//           p1 = 4 ops × 3 accesses = 12.
	//   packed: p0 pop prefix = 4 (read TOP, help read, help CAS,
	//           read below); p1 = 4 ops × 5 accesses = 20 (the packed
	//           help CAS is unconditional, as in the paper).
	//   boxed:  p0 prefix = 4 as above, but p1's first pop skips its
	//           help CAS (p0 already completed that lazy write), so
	//           p1 = 4 + 5 + 5 + 5 = 19.
	var p0Prefix, p1Ops int
	switch backend {
	case NaiveABA:
		p0Prefix, p1Ops = 2, 12
	case Boxed:
		p0Prefix, p1Ops = 4, 19
	default:
		p0Prefix, p1Ops = 4, 20
	}
	sched := make([]int, 0, p0Prefix+p1Ops+1)
	for i := 0; i < p0Prefix; i++ {
		sched = append(sched, 0)
	}
	for i := 0; i < p1Ops; i++ {
		sched = append(sched, 1)
	}
	sched = append(sched, 0) // p0's final CAS
	return build, sched
}

// PooledTreiberABASchedule returns the builder and handcrafted
// schedule that force the §2.2 recycled-node scenario on the pooled
// Treiber stack: process 0 starts a pop of b from [a b], is preempted
// between its head read and head CAS, while process 1 pops b, pops a,
// then pushes 30 and 40 — the per-pid free list is LIFO, so 30 reuses
// a's node and 40 reuses b's, and b's handle is the head again when p0
// resumes. Without the tag p0's stale CAS would succeed on the
// recycled handle (returning the long-gone b and unlinking 40); the
// tag, advanced by p1's four head CASes, makes it fail, so the pop
// aborts and the history stays linearizable. Check also asserts that
// recycling really happened (>= 2 reuses).
//
// Gate counts: every pooled Treiber attempt performs exactly 2
// observed accesses (head read, head CAS; node derefs and pool traffic
// are arena-private). p0's prefix is its head read; p1 runs 4 ops to
// completion (8 accesses); p0's final grant is the stale CAS.
func PooledTreiberABASchedule() (Builder, []int) {
	build := weakStackBuilderPost(PooledTreiber, 4,
		[]uint64{10, 20}, // a=10, b=20
		[][]StackOp{
			{{Push: false}}, // p0: pop
			{ // p1: pop b, pop a, push 30, push 40
				{Push: false},
				{Push: false},
				{Push: true, Value: 30},
				{Push: true, Value: 40},
			},
		},
		false,
		func(s weakStack) error {
			st := s.(*stack.TreiberPooled).PoolStats()
			if st.Reuses < 2 {
				return fmt.Errorf("schedule recycled %d nodes, want >= 2 (no reuse pressure)", st.Reuses)
			}
			return nil
		})
	sched := []int{0}
	for i := 0; i < 8; i++ {
		sched = append(sched, 1)
	}
	return build, append(sched, 0)
}

// PooledMSABASchedule is the queue-shaped sibling on the pooled
// Michael-Scott queue: process 0 starts a dequeue of [10] (head = the
// dummy d), is preempted before its head CAS, while process 1
// dequeues 10 (retiring d), enqueues 30 (recycling d as the new node)
// and dequeues 30 — moving head THROUGH other nodes and BACK to d's
// handle. p0's stale CAS then compares equal on the handle — the
// textbook ABA — and only the tag (advanced by two head CASes) makes
// it fail; p0 retries and correctly reports empty.
//
// Gate counts (observed accesses are head/tail register reads and
// CASes; node next-words and pool traffic are arena-private): a
// dequeue attempt gates head read, tail read, head re-read
// (consistency), head CAS — the empty path stops after the re-read; an
// enqueue gates tail read, tail re-read, tail swing CAS. So p0
// prefixes 3 gates, p1 runs deq+enq+deq = 4+3+4 = 11, p0 finishes
// with its failed CAS plus a 3-gate empty retry.
func PooledMSABASchedule() (Builder, []int) {
	build := weakQueueBuilder(PooledMSQueue, 0,
		[]uint64{10},
		[][]QueueOp{
			{{Enq: false}}, // p0: deq
			{ // p1: deq 10, enq 30, deq 30
				{Enq: false},
				{Enq: true, Value: 30},
				{Enq: false},
			},
		},
		func(q weakQueue) error {
			st := q.(pooledMSAdapter).q.PoolStats()
			if st.Reuses < 1 {
				return fmt.Errorf("schedule recycled %d nodes, want >= 1 (no reuse pressure)", st.Reuses)
			}
			return nil
		})
	sched := []int{0, 0, 0}
	for i := 0; i < 11; i++ {
		sched = append(sched, 1)
	}
	return build, append(sched, 0, 0, 0, 0)
}
