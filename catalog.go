package repro

import (
	"fmt"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/deque"
	"repro/internal/queue"
	"repro/internal/set"
	"repro/internal/stack"
)

// The backend catalog: one descriptor per exported backend, carrying
// the metadata the README table quotes and the constructor closures
// the harnesses consume. internal/bench, cmd/lincheck, and the
// lockstep fuzzers iterate Catalog() instead of keeping their own
// backend lists, so a backend's name is written exactly once — here.

// Object kinds, the values of Backend.Kind.
const (
	KindStack = "stack"
	KindQueue = "queue"
	KindDeque = "deque"
	KindSet   = "set"
)

// Catalog names, one constant per exported backend. The string after
// the kind prefix is also accepted bare by the options constructors
// (NewStackBackend("treiber") == NewStackBackend("stack/treiber")).
const (
	nameStackSensitive     = "stack/sensitive"
	nameStackAbortable     = "stack/abortable"
	nameStackNonBlocking   = "stack/non-blocking"
	nameStackTreiber       = "stack/treiber"
	nameStackElimination   = "stack/elimination"
	nameStackCombining     = "stack/combining"
	nameStackCombiningPool = "stack/combining-pooled"
	nameQueueSensitive     = "queue/sensitive"
	nameQueueAbortable     = "queue/abortable"
	nameQueueNonBlocking   = "queue/non-blocking"
	nameQueueCombining     = "queue/combining"
	nameQueueSharded       = "queue/sharded"
	nameQueueMSPooled      = "queue/michael-scott-pooled"
	nameDequeSensitive     = "deque/sensitive"
	nameDequeAbortable     = "deque/abortable"
	nameDequeNonBlocking   = "deque/non-blocking"
	nameStackAdaptive      = "stack/adaptive"
	nameQueueAdaptive      = "queue/adaptive"
	nameSetSensitive       = "set/sensitive"
	nameSetAbortable       = "set/abortable"
	nameSetNonBlocking     = "set/non-blocking"
	nameSetCombining       = "set/combining"
	nameSetHarris          = "set/harris"
	nameSetHash            = "set/hashset"
	nameSetAdaptive        = "set/adaptive"
)

// Ops is a uniform op-indexed driver over one backend instance: Do
// executes op code op (see below) with value v on behalf of pid and
// returns the popped/dequeued value (or 1/0 for set booleans) plus
// the backend's error. Op codes per kind:
//
//	stack, queue:  0 push/enqueue(v), 1 pop/dequeue
//	deque:         0 pushL(v), 1 pushR(v), 2 popL, 3 popR
//	set:           0 add(v), 1 remove(v), 2 contains(v)
//
// N is the number of op codes the kind has.
//
// Abandon and ArmCrash are the fault-injection seams, non-nil exactly
// when the backend supports them (the flat-combining family). Abandon
// publishes op (an update op code; reads have nothing to abandon)
// without waiting — the §5 model of a process crashing mid-operation,
// leaving a pending request a combiner may or may not serve; the pid
// must never operate on the instance again. ArmCrash arms a one-shot
// combiner crash: pid's next combining pass dies after `after` slot
// applications with the lease held (see combine.Core.ArmCombinerCrash).
type Ops struct {
	N        int
	Do       func(pid, op int, v uint64) (uint64, error)
	Abandon  func(pid, op int, v uint64) bool
	ArmCrash func(pid, after int) bool

	// Instance is the capability-interface value Do drives (Drive
	// fills it; Direct builders may leave it nil). Harnesses that need
	// an optional extension — an adaptive backend's migration stats,
	// a pool's reuse counters — reach it through repro.Unwrap or
	// repro.AdaptiveStatsOf instead of rebuilding the instance.
	Instance any
}

// Backend describes one catalog entry. The string fields mirror the
// README backend-catalog table (TestCatalogMatchesReadme keeps the
// two in lockstep); the closures build fresh instances.
type Backend struct {
	// Name is the catalog identifier, "<kind>/<variant>".
	Name string
	// Kind is the object kind: KindStack, KindQueue, KindDeque, KindSet.
	Kind string
	// Constructor is the legacy concrete-type constructor, as the
	// README table quotes it (e.g. "NewStack[T](k, n)").
	Constructor string
	// Object is the one-line object description.
	Object string
	// Tier places the backend on the ladder: "paper" (Figures 1-3),
	// "baseline" (classic lock-free), "scaling" (combining/sharded),
	// "allocation" (pooled recycled nodes), "hash" (split-ordered),
	// "adaptive" (contention-adaptive meta-backends morphing between
	// the other tiers' rungs).
	Tier string
	// Progress is the liveness guarantee, as prose ("lock-free",
	// "starvation-free", "abortable", qualified where mixed).
	Progress string
	// Domain is the element domain: "generic" ([T any]), "uint64", or
	// "uint32".
	Domain string
	// Allocation is the allocation profile ("boxed", "pooled, 0
	// allocs/op", "in-place ring, 0 allocs/op", "packed words", "COW
	// boxed", ...). E17 gates every stack and queue entry whose
	// profile reads "0 allocs/op" at zero steady-state allocations.
	Allocation string
	// Experiments lists the experiment ids that cover this backend.
	Experiments []string
	// Robustness classifies the backend's §5 crash tolerance, measured
	// by experiment E22 and quoted by the README table:
	//
	//	"survivor-safe":  lock-free (or single-attempt weak) operations;
	//	                  a crashed process never blocks the survivors.
	//	"lease-takeover": flat combining; a crashed combiner is deposed
	//	                  by a waiter after the heartbeat lease budget
	//	                  and pending requests are re-served.
	//	"lock-vulnerable": Figure 3 lock fallback; a process that
	//	                  crashes inside the critical section wedges
	//	                  every later slow-path operation.
	Robustness string
	// Weak marks Figure 1 backends: uniform operations are single
	// attempts that may return the kind's abort sentinel.
	Weak bool
	// Bounded marks backends with a capacity bound (WithCapacity).
	Bounded bool
	// LinOpts are options a history checker must apply for the
	// backend's global behavior to match the sequential model (the
	// sharded queue is FIFO only when pinned to one stripe); LinNote
	// names the restriction in reports.
	LinOpts []Option
	LinNote string

	// Exactly one of the following four is non-nil, matching Kind: it
	// builds a fresh instance behind the kind's capability interface,
	// instantiated at the uniform measurement domain (uint64 values;
	// uint32 for deques).
	Stack func(opts ...Option) StackAPI[uint64]
	Queue func(opts ...Option) QueueAPI[uint64]
	Deque func(opts ...Option) DequeAPI
	Set   func(opts ...Option) SetAPI

	// Direct builds a fresh instance and returns closures over the
	// concrete type's own methods — no adapter, no interface
	// dispatch. Experiment E20 measures Drive (the interface path)
	// against this baseline.
	Direct func(opts ...Option) Ops
}

// Drive builds a fresh instance of b behind its capability interface
// and wraps it in the uniform Ops driver — the unified-dispatch path
// (compare Backend.Direct). Values are truncated to the backend's
// domain where it is narrower than uint64.
func Drive(b Backend, opts ...Option) Ops {
	o := applyOptions(opts)
	switch b.Kind {
	case KindStack:
		s := b.Stack(opts...)
		applyRetryPolicy(s, o)
		ops := Ops{N: 2, Instance: s, Do: func(pid, op int, v uint64) (uint64, error) {
			if op == 0 {
				return 0, s.Push(pid, v)
			}
			return s.Pop(pid)
		}}
		if c, ok := Unwrap(s).(interface {
			AbandonPush(pid int, v uint64)
			AbandonPop(pid int)
		}); ok {
			ops.Abandon = func(pid, op int, v uint64) bool {
				if op == 0 {
					c.AbandonPush(pid, v)
				} else {
					c.AbandonPop(pid)
				}
				return true
			}
		}
		armCrash(&ops, s)
		return ops
	case KindQueue:
		q := b.Queue(opts...)
		applyRetryPolicy(q, o)
		ops := Ops{N: 2, Instance: q, Do: func(pid, op int, v uint64) (uint64, error) {
			if op == 0 {
				return 0, q.Enqueue(pid, v)
			}
			return q.Dequeue(pid)
		}}
		if c, ok := Unwrap(q).(interface {
			AbandonEnqueue(pid int, v uint64)
			AbandonDequeue(pid int)
		}); ok {
			ops.Abandon = func(pid, op int, v uint64) bool {
				if op == 0 {
					c.AbandonEnqueue(pid, v)
				} else {
					c.AbandonDequeue(pid)
				}
				return true
			}
		}
		armCrash(&ops, q)
		return ops
	case KindDeque:
		d := b.Deque(opts...)
		applyRetryPolicy(d, o)
		return Ops{N: 4, Instance: d, Do: func(pid, op int, v uint64) (uint64, error) {
			switch op {
			case 0:
				return 0, d.PushLeft(pid, uint32(v))
			case 1:
				return 0, d.PushRight(pid, uint32(v))
			case 2:
				got, err := d.PopLeft(pid)
				return uint64(got), err
			default:
				got, err := d.PopRight(pid)
				return uint64(got), err
			}
		}}
	default: // KindSet
		s := b.Set(opts...)
		applyRetryPolicy(s, o)
		ops := Ops{N: 3, Instance: s, Do: func(pid, op int, v uint64) (uint64, error) {
			var got bool
			var err error
			switch op {
			case 0:
				got, err = s.Add(pid, v)
			case 1:
				got, err = s.Remove(pid, v)
			default:
				got, err = s.Contains(pid, v)
			}
			return boolOp(got, err)
		}}
		if c, ok := Unwrap(s).(interface {
			AbandonAdd(pid int, k uint64)
			AbandonRemove(pid int, k uint64)
		}); ok {
			ops.Abandon = func(pid, op int, v uint64) bool {
				switch op {
				case 0:
					c.AbandonAdd(pid, v)
				case 1:
					c.AbandonRemove(pid, v)
				default:
					return false // reads have nothing to abandon
				}
				return true
			}
		}
		armCrash(&ops, s)
		return ops
	}
}

// armCrash wires Ops.ArmCrash when the backend underneath exposes the
// combiner fault injection.
func armCrash(ops *Ops, x any) {
	if c, ok := Unwrap(x).(interface {
		ArmCombinerCrash(pid, after int) bool
	}); ok {
		ops.ArmCrash = c.ArmCombinerCrash
	}
}

// boolOp folds a set operation's boolean into the Ops value domain.
func boolOp(got bool, err error) (uint64, error) {
	if got {
		return 1, err
	}
	return 0, err
}

// Catalog returns a descriptor for every exported backend, in ladder
// order within each kind. The slice is freshly allocated; the
// closures are shared and safe for concurrent use (each call builds
// a fresh backend instance).
func Catalog() []Backend {
	return append(append(append(stackCatalog(), queueCatalog()...), dequeCatalog()...), setCatalog()...)
}

// CatalogByKind returns the catalog entries of one kind.
func CatalogByKind(kind string) []Backend {
	var out []Backend
	for _, b := range Catalog() {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

func stackCatalog() []Backend {
	combining := Backend{
		Name: nameStackCombining, Kind: KindStack,
		Constructor: "NewCombiningStack[T](k, n)",
		Object:      "bounded stack, flat combining",
		Tier:        "scaling", Progress: "starvation-free", Domain: "generic", Allocation: "pooled, 0 allocs/op",
		Experiments: []string{"E5", "E11", "E15", "E17", "E20", "E21", "E22"},
		Robustness:  "lease-takeover",
		Bounded:     true,
		Stack: func(opts ...Option) StackAPI[uint64] {
			o := applyOptions(opts)
			return stack.NewCombining[uint64](o.capacity, o.procs)
		},
		Direct: func(opts ...Option) Ops {
			o := applyOptions(opts)
			s := stack.NewCombining[uint64](o.capacity, o.procs)
			return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
				if op == 0 {
					return 0, s.Push(pid, v)
				}
				return s.Pop(pid)
			}}
		},
	}
	// stack/combining-pooled is stack/combining at uint64, kept under
	// its own name for the committed E21/E22 points.
	combiningPooled := combining
	combiningPooled.Name, combiningPooled.Constructor = nameStackCombiningPool, "NewCombiningPooledStack(k, n)"
	combiningPooled.Domain = "uint64"
	combiningPooled.Experiments = []string{"E5", "E11", "E17", "E20", "E21", "E22"}
	return []Backend{
		{
			Name: nameStackAbortable, Kind: KindStack,
			Constructor: "NewAbortableStack[T](k, n)",
			Object:      "weak bounded stack, Figure 1",
			Tier:        "paper", Progress: "abortable", Domain: "generic", Allocation: "pooled, 0 allocs/op",
			Experiments: []string{"E1", "E2", "E3", "E8", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Weak:        true, Bounded: true,
			Stack: func(opts ...Option) StackAPI[uint64] {
				o := applyOptions(opts)
				return weakStack[uint64]{stack.NewAbortable[uint64](o.capacity, o.procs)}
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := stack.NewAbortable[uint64](o.capacity, o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, s.TryPush(pid, v)
					}
					return s.TryPop(pid)
				}}
			},
		},
		{
			Name: nameStackNonBlocking, Kind: KindStack,
			Constructor: "NewNonBlockingStack[T](k, n)",
			Object:      "bounded stack, Figure 2",
			Tier:        "paper", Progress: "lock-free", Domain: "generic", Allocation: "pooled, 0 allocs/op",
			Experiments: []string{"E3", "E5", "E7", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Bounded:     true,
			Stack: func(opts ...Option) StackAPI[uint64] {
				o := applyOptions(opts)
				return stack.NewNonBlocking[uint64](o.capacity, o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := stack.NewNonBlocking[uint64](o.capacity, o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, s.Push(pid, v)
					}
					return s.Pop(pid)
				}}
			},
		},
		{
			Name: nameStackSensitive, Kind: KindStack,
			Constructor: "NewStack[T](k, n)",
			Object:      "bounded stack, Figure 3",
			Tier:        "paper", Progress: "starvation-free", Domain: "generic", Allocation: "pooled, 0 allocs/op",
			Experiments: []string{"E1", "E4", "E5", "E6", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "lock-vulnerable",
			Bounded:     true,
			Stack: func(opts ...Option) StackAPI[uint64] {
				o := applyOptions(opts)
				return stack.NewSensitive[uint64](o.capacity, o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := stack.NewSensitive[uint64](o.capacity, o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, s.Push(pid, v)
					}
					return s.Pop(pid)
				}}
			},
		},
		{
			Name: nameStackTreiber, Kind: KindStack,
			Constructor: "NewTreiberStack[T](n)",
			Object:      "unbounded stack",
			Tier:        "baseline", Progress: "lock-free", Domain: "generic", Allocation: "pooled, 0 allocs/op",
			Experiments: []string{"E5", "E8", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Stack: func(opts ...Option) StackAPI[uint64] {
				o := applyOptions(opts)
				return stack.NewTreiber[uint64](o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := stack.NewTreiber[uint64](o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, s.Push(pid, v)
					}
					return s.Pop(pid)
				}}
			},
		},
		{
			Name: nameStackElimination, Kind: KindStack,
			Constructor: "NewEliminationStack[T](width, n)",
			Object:      "unbounded stack + exchanger",
			Tier:        "baseline", Progress: "lock-free", Domain: "generic", Allocation: "recycled nodes, boxed offers",
			Experiments: []string{"E5", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Stack: func(opts ...Option) StackAPI[uint64] {
				o := applyOptions(opts)
				return stack.NewElimination[uint64](o.width, o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := stack.NewElimination[uint64](o.width, o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, s.Push(pid, v)
					}
					return s.Pop(pid)
				}}
			},
		},
		combining,
		combiningPooled,
		{
			Name: nameStackAdaptive, Kind: KindStack,
			Constructor: "NewAdaptiveStack[T](k, n)",
			Object:      "contention-adaptive stack, sensitive-combining ladder",
			Tier:        "adaptive", Progress: "starvation-free", Domain: "generic", Allocation: "pooled rungs",
			Experiments: []string{"E5", "E11", "E17", "E20", "E21", "E22", "E23"},
			Robustness:  "lock-vulnerable",
			Bounded:     true,
			LinOpts:     []Option{WithThresholds(adaptive.ForcingThresholds())},
			LinNote:     "forced morphs",
			Stack: func(opts ...Option) StackAPI[uint64] {
				o := applyOptions(opts)
				return adaptive.NewStack[uint64](o.capacity, o.procs, o.thr())
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := adaptive.NewStack[uint64](o.capacity, o.procs, o.thr())
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, s.Push(pid, v)
					}
					return s.Pop(pid)
				}}
			},
		},
	}
}

func queueCatalog() []Backend {
	return []Backend{
		{
			Name: nameQueueAbortable, Kind: KindQueue,
			Constructor: "NewAbortableQueue[T](k)",
			Object:      "weak bounded FIFO queue, Figure 1",
			Tier:        "paper", Progress: "abortable", Domain: "generic", Allocation: "in-place ring, 0 allocs/op",
			Experiments: []string{"E9", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Weak:        true, Bounded: true,
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return liftWeakQueue[uint64](queue.NewAbortable[uint64](o.capacity))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := queue.NewAbortable[uint64](o.capacity)
				return Ops{N: 2, Do: func(_, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.TryEnqueue(v)
					}
					return q.TryDequeue()
				}}
			},
		},
		{
			Name: nameQueueNonBlocking, Kind: KindQueue,
			Constructor: "NewNonBlockingQueue[T](k)",
			Object:      "bounded FIFO queue, Figure 2",
			Tier:        "paper", Progress: "lock-free", Domain: "generic", Allocation: "in-place ring, 0 allocs/op",
			Experiments: []string{"E9", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Bounded:     true,
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return liftQueue[uint64](queue.NewNonBlocking[uint64](o.capacity))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := queue.NewNonBlocking[uint64](o.capacity)
				return Ops{N: 2, Do: func(_, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.Enqueue(v)
					}
					return q.Dequeue()
				}}
			},
		},
		{
			Name: nameQueueSensitive, Kind: KindQueue,
			Constructor: "NewQueue[T](k, n)",
			Object:      "bounded FIFO queue, Figure 3",
			Tier:        "paper", Progress: "starvation-free", Domain: "generic", Allocation: "in-place ring, 0 allocs/op",
			Experiments: []string{"E9", "E11", "E16", "E17", "E20", "E21", "E22"},
			Robustness:  "lock-vulnerable",
			Bounded:     true,
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return queue.NewSensitive[uint64](o.capacity, o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := queue.NewSensitive[uint64](o.capacity, o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.Enqueue(pid, v)
					}
					return q.Dequeue(pid)
				}}
			},
		},
		{
			Name: nameQueueCombining, Kind: KindQueue,
			Constructor: "NewCombiningQueue[T](k, n)",
			Object:      "bounded FIFO queue, flat combining",
			Tier:        "scaling", Progress: "starvation-free", Domain: "generic", Allocation: "in-place ring, 0 allocs/op",
			Experiments: []string{"E9", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "lease-takeover",
			Bounded:     true,
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return queue.NewCombining[uint64](o.capacity, o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := queue.NewCombining[uint64](o.capacity, o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.Enqueue(pid, v)
					}
					return q.Dequeue(pid)
				}}
			},
		},
		{
			Name: nameQueueSharded, Kind: KindQueue,
			Constructor: "NewShardedQueue[T](k, n, shards)",
			Object:      "pid-striped queue, per-shard FIFO",
			Tier:        "scaling", Progress: "starvation-free, relaxed cross-shard order", Domain: "generic", Allocation: "in-place ring, 0 allocs/op",
			Experiments: []string{"E9", "E11", "E16", "E17", "E20", "E21", "E22"},
			Robustness:  "lease-takeover",
			Bounded:     true,
			LinOpts:     []Option{WithShards(1)},
			LinNote:     "K=1",
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return queue.NewSharded[uint64](o.capacity, o.procs, o.shards)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := queue.NewSharded[uint64](o.capacity, o.procs, o.shards)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.Enqueue(pid, v)
					}
					return q.Dequeue(pid)
				}}
			},
		},
		{
			Name: nameQueueMSPooled, Kind: KindQueue,
			Constructor: "NewPooledQueue[T](n)",
			Object:      "unbounded Michael-Scott queue",
			Tier:        "allocation", Progress: "lock-free", Domain: "generic", Allocation: "pooled, 0 allocs/op",
			Experiments: []string{"E8", "E9", "E11", "E17", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return queue.NewMichaelScott[uint64](o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := queue.NewMichaelScott[uint64](o.procs)
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.Enqueue(pid, v)
					}
					return q.Dequeue(pid)
				}}
			},
		},
		{
			Name: nameQueueAdaptive, Kind: KindQueue,
			Constructor: "NewAdaptiveQueue[T](k, n, shards)",
			Object:      "contention-adaptive queue, sensitive-combining-sharded ladder",
			Tier:        "adaptive", Progress: "starvation-free, relaxed cross-shard order on the top rung", Domain: "generic", Allocation: "in-place ring rungs",
			Experiments: []string{"E9", "E11", "E17", "E20", "E21", "E22", "E23"},
			Robustness:  "lock-vulnerable",
			Bounded:     true,
			LinOpts:     []Option{WithShards(1), WithThresholds(adaptive.ForcingThresholds())},
			LinNote:     "K=1, forced morphs",
			Queue: func(opts ...Option) QueueAPI[uint64] {
				o := applyOptions(opts)
				return adaptive.NewQueue[uint64](o.capacity, o.procs, o.shards, o.thr())
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				q := adaptive.NewQueue[uint64](o.capacity, o.procs, o.shards, o.thr())
				return Ops{N: 2, Do: func(pid, op int, v uint64) (uint64, error) {
					if op == 0 {
						return 0, q.Enqueue(pid, v)
					}
					return q.Dequeue(pid)
				}}
			},
		},
	}
}

func dequeCatalog() []Backend {
	return []Backend{
		{
			Name: nameDequeAbortable, Kind: KindDeque,
			Constructor: "NewAbortableDeque(k)",
			Object:      "weak HLM deque",
			Tier:        "paper", Progress: "abortable", Domain: "uint32", Allocation: "packed words",
			Experiments: []string{"E14", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Weak:        true, Bounded: true,
			Deque: func(opts ...Option) DequeAPI {
				o := applyOptions(opts)
				return weakDeque[*deque.Abortable]{deque.NewAbortable(o.capacity)}
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				d := deque.NewAbortable(o.capacity)
				return Ops{N: 4, Do: func(_, op int, v uint64) (uint64, error) {
					switch op {
					case 0:
						return 0, d.TryPushLeft(uint32(v))
					case 1:
						return 0, d.TryPushRight(uint32(v))
					case 2:
						got, err := d.TryPopLeft()
						return uint64(got), err
					default:
						got, err := d.TryPopRight()
						return uint64(got), err
					}
				}}
			},
		},
		{
			Name: nameDequeNonBlocking, Kind: KindDeque,
			Constructor: "NewNonBlockingDeque(k)",
			Object:      "HLM deque, Figure 2",
			Tier:        "paper", Progress: "lock-free", Domain: "uint32", Allocation: "packed words",
			Experiments: []string{"E14", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Bounded:     true,
			Deque: func(opts ...Option) DequeAPI {
				o := applyOptions(opts)
				return pidlessDeque[*deque.NonBlocking]{deque.NewNonBlocking(o.capacity)}
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				d := deque.NewNonBlocking(o.capacity)
				return Ops{N: 4, Do: func(_, op int, v uint64) (uint64, error) {
					switch op {
					case 0:
						return 0, d.PushLeft(uint32(v))
					case 1:
						return 0, d.PushRight(uint32(v))
					case 2:
						got, err := d.PopLeft()
						return uint64(got), err
					default:
						got, err := d.PopRight()
						return uint64(got), err
					}
				}}
			},
		},
		{
			Name: nameDequeSensitive, Kind: KindDeque,
			Constructor: "NewDeque(k, n)",
			Object:      "bounded HLM deque, Figure 3",
			Tier:        "paper", Progress: "starvation-free", Domain: "uint32", Allocation: "packed words",
			Experiments: []string{"E14", "E20", "E21", "E22"},
			Robustness:  "lock-vulnerable",
			Bounded:     true,
			Deque: func(opts ...Option) DequeAPI {
				o := applyOptions(opts)
				return deque.NewSensitive(o.capacity, o.procs)
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				d := deque.NewSensitive(o.capacity, o.procs)
				return Ops{N: 4, Do: func(pid, op int, v uint64) (uint64, error) {
					switch op {
					case 0:
						return 0, d.PushLeft(pid, uint32(v))
					case 1:
						return 0, d.PushRight(pid, uint32(v))
					case 2:
						got, err := d.PopLeft(pid)
						return uint64(got), err
					default:
						got, err := d.PopRight(pid)
						return uint64(got), err
					}
				}}
			},
		},
	}
}

func setCatalog() []Backend {
	return []Backend{
		{
			Name: nameSetAbortable, Kind: KindSet,
			Constructor: "NewAbortableSet()",
			Object:      "weak sorted set",
			Tier:        "paper", Progress: "abortable updates, wait-free Contains", Domain: "uint64", Allocation: "COW boxed",
			Experiments: []string{"E11", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Weak:        true,
			Set: func(opts ...Option) SetAPI {
				return weakSet{set.NewAbortable()}
			},
			Direct: func(opts ...Option) Ops {
				s := set.NewAbortable()
				return Ops{N: 3, Do: func(_, op int, v uint64) (uint64, error) {
					switch op {
					case 0:
						return boolOp(s.TryAdd(v))
					case 1:
						return boolOp(s.TryRemove(v))
					default:
						return boolOp(s.TryContains(v))
					}
				}}
			},
		},
		{
			Name: nameSetNonBlocking, Kind: KindSet,
			Constructor: "NewNonBlockingSet()",
			Object:      "sorted set, Figure 2",
			Tier:        "paper", Progress: "lock-free updates, wait-free Contains", Domain: "uint64", Allocation: "COW boxed",
			Experiments: []string{"E11", "E18", "E19", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Set: func(opts ...Option) SetAPI {
				return liftSet(set.NewNonBlocking())
			},
			Direct: func(opts ...Option) Ops {
				s := set.NewNonBlocking()
				return setDirect(s.Add, s.Remove, s.Contains)
			},
		},
		{
			Name: nameSetSensitive, Kind: KindSet,
			Constructor: "NewSet(n)",
			Object:      "sorted set, Figure 3",
			Tier:        "paper", Progress: "starvation-free updates, wait-free Contains", Domain: "uint64", Allocation: "COW boxed",
			Experiments: []string{"E11", "E18", "E20", "E21", "E22"},
			Robustness:  "lock-vulnerable",
			Set: func(opts ...Option) SetAPI {
				o := applyOptions(opts)
				return liftSet(set.NewSensitive(o.procs))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := set.NewSensitive(o.procs)
				return setDirect(s.Add, s.Remove, s.Contains)
			},
		},
		{
			Name: nameSetCombining, Kind: KindSet,
			Constructor: "NewCombiningSet(n)",
			Object:      "sorted set, flat combining",
			Tier:        "scaling", Progress: "starvation-free", Domain: "uint64", Allocation: "COW boxed",
			Experiments: []string{"E11", "E18", "E20", "E21", "E22"},
			Robustness:  "lease-takeover",
			Set: func(opts ...Option) SetAPI {
				o := applyOptions(opts)
				return liftSet(set.NewCombining(o.procs))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := set.NewCombining(o.procs)
				return setDirect(s.Add, s.Remove, s.Contains)
			},
		},
		{
			Name: nameSetHarris, Kind: KindSet,
			Constructor: "NewLockFreeSet(n)",
			Object:      "Harris/Michael list-based set",
			Tier:        "allocation", Progress: "lock-free", Domain: "uint64", Allocation: "pooled",
			Experiments: []string{"E11", "E18", "E19", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Set: func(opts ...Option) SetAPI {
				o := applyOptions(opts)
				return liftSet(set.NewHarris(o.procs))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := set.NewHarris(o.procs)
				return setDirect(s.Add, s.Remove, s.Contains)
			},
		},
		{
			Name: nameSetHash, Kind: KindSet,
			Constructor: "NewHashSet(n)",
			Object:      "split-ordered hash set (keys < 2^63)",
			Tier:        "hash", Progress: "lock-free", Domain: "uint64", Allocation: "pooled + shortcut words",
			Experiments: []string{"E11", "E18", "E19", "E20", "E21", "E22"},
			Robustness:  "survivor-safe",
			Set: func(opts ...Option) SetAPI {
				o := applyOptions(opts)
				return liftSet(set.NewHash(o.procs))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := set.NewHash(o.procs)
				return setDirect(s.Add, s.Remove, s.Contains)
			},
		},
		{
			Name: nameSetAdaptive, Kind: KindSet,
			Constructor: "NewAdaptiveSet(n)",
			Object:      "contention-adaptive set, cow-harris-hash ladder (keys < 2^63)",
			Tier:        "adaptive", Progress: "non-blocking updates, wait-free reads on the cow rung", Domain: "uint64", Allocation: "rung-dependent",
			Experiments: []string{"E11", "E18", "E20", "E21", "E22", "E23"},
			Robustness:  "survivor-safe",
			LinOpts:     []Option{WithThresholds(adaptive.ForcingThresholds())},
			LinNote:     "forced morphs",
			Set: func(opts ...Option) SetAPI {
				o := applyOptions(opts)
				return liftSet(adaptive.NewSet(o.procs, o.thr()))
			},
			Direct: func(opts ...Option) Ops {
				o := applyOptions(opts)
				s := adaptive.NewSet(o.procs, o.thr())
				return setDirect(s.Add, s.Remove, s.Contains)
			},
		},
	}
}

// setDirect builds the direct-call Ops driver from a strong set's
// bound methods.
func setDirect(add, remove, contains func(int, uint64) bool) Ops {
	return Ops{N: 3, Do: func(pid, op int, v uint64) (uint64, error) {
		switch op {
		case 0:
			return boolOp(add(pid, v), nil)
		case 1:
			return boolOp(remove(pid, v), nil)
		default:
			return boolOp(contains(pid, v), nil)
		}
	}}
}

// find resolves a backend name of the given kind, accepting both the
// full catalog name ("stack/treiber") and the bare variant
// ("treiber"), and applies WithPooled (a pooled backend, or one that
// already runs at 0 allocs/op, passes; any other is an error) and the
// WithAdaptive redirection.
func find(kind, name string, opts []Option) (Backend, options, error) {
	o := applyOptions(opts)
	if !strings.Contains(name, "/") {
		name = kind + "/" + name
	}
	entries := CatalogByKind(kind)
	lookup := func(n string) (Backend, bool) {
		for _, b := range entries {
			if b.Name == n {
				return b, true
			}
		}
		return Backend{}, false
	}
	b, ok := lookup(name)
	if !ok {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name)
		}
		return Backend{}, o, fmt.Errorf("repro: unknown %s backend %q (catalog: %s)",
			kind, name, strings.Join(names, ", "))
	}
	if o.pooled && !strings.Contains(b.Allocation, "pooled") && !strings.Contains(b.Allocation, "0 allocs/op") {
		return Backend{}, o, fmt.Errorf("repro: backend %s does not recycle its nodes", b.Name)
	}
	if o.adaptive && b.Tier != "adaptive" {
		a, ok := lookup(kind + "/adaptive")
		if !ok {
			return Backend{}, o, fmt.Errorf("repro: the %s kind has no adaptive meta-backend", kind)
		}
		b = a
	}
	return b, o, nil
}

// genericStack instantiates a generic-domain stack backend at T. It
// lives next to the catalog literals so each backend's construction
// is written only in this file.
func genericStack[T any](name string, o options) (StackAPI[T], bool) {
	switch name {
	case nameStackSensitive:
		return stack.NewSensitive[T](o.capacity, o.procs), true
	case nameStackAbortable:
		return weakStack[T]{stack.NewAbortable[T](o.capacity, o.procs)}, true
	case nameStackNonBlocking:
		return stack.NewNonBlocking[T](o.capacity, o.procs), true
	case nameStackTreiber:
		return stack.NewTreiber[T](o.procs), true
	case nameStackElimination:
		return stack.NewElimination[T](o.width, o.procs), true
	case nameStackCombining:
		return stack.NewCombining[T](o.capacity, o.procs), true
	case nameStackAdaptive:
		return adaptive.NewStack[T](o.capacity, o.procs, o.thr()), true
	}
	return nil, false
}

// genericQueue is genericStack's FIFO sibling.
func genericQueue[T any](name string, o options) (QueueAPI[T], bool) {
	switch name {
	case nameQueueSensitive:
		return queue.NewSensitive[T](o.capacity, o.procs), true
	case nameQueueAbortable:
		return liftWeakQueue[T](queue.NewAbortable[T](o.capacity)), true
	case nameQueueNonBlocking:
		return liftQueue[T](queue.NewNonBlocking[T](o.capacity)), true
	case nameQueueCombining:
		return queue.NewCombining[T](o.capacity, o.procs), true
	case nameQueueSharded:
		return queue.NewSharded[T](o.capacity, o.procs, o.shards), true
	case nameQueueMSPooled:
		return queue.NewMichaelScott[T](o.procs), true
	case nameQueueAdaptive:
		return adaptive.NewQueue[T](o.capacity, o.procs, o.shards, o.thr()), true
	}
	return nil, false
}

// NewStackBackend builds the named stack backend from the catalog
// behind the uniform StackAPI contract. Generic-domain backends
// instantiate at any T; combining-pooled, the uint64 alias of
// combining, is available exactly when T is uint64. Options:
// WithCapacity, WithProcs, WithWidth, WithPooled.
//
//	s, err := repro.NewStackBackend[string]("sensitive",
//	    repro.WithCapacity(1024), repro.WithProcs(8))
func NewStackBackend[T any](name string, opts ...Option) (StackAPI[T], error) {
	b, o, err := find(KindStack, name, opts)
	if err != nil {
		return nil, err
	}
	if s, ok := genericStack[T](b.Name, o); ok {
		applyRetryPolicy(s, o)
		return s, nil
	}
	if s, ok := any(b.Stack(opts...)).(StackAPI[T]); ok {
		applyRetryPolicy(s, o)
		return s, nil
	}
	return nil, fmt.Errorf("repro: backend %s carries %s elements; instantiate it at that type", b.Name, b.Domain)
}

// NewQueueBackend is NewStackBackend's FIFO sibling. Options:
// WithCapacity, WithProcs, WithShards, WithPooled.
func NewQueueBackend[T any](name string, opts ...Option) (QueueAPI[T], error) {
	b, o, err := find(KindQueue, name, opts)
	if err != nil {
		return nil, err
	}
	if q, ok := genericQueue[T](b.Name, o); ok {
		applyRetryPolicy(q, o)
		return q, nil
	}
	if q, ok := any(b.Queue(opts...)).(QueueAPI[T]); ok {
		applyRetryPolicy(q, o)
		return q, nil
	}
	return nil, fmt.Errorf("repro: backend %s carries %s elements; instantiate it at that type", b.Name, b.Domain)
}

// NewDequeBackend builds the named deque backend (uint32 values).
// Options: WithCapacity, WithProcs.
func NewDequeBackend(name string, opts ...Option) (DequeAPI, error) {
	b, o, err := find(KindDeque, name, opts)
	if err != nil {
		return nil, err
	}
	d := b.Deque(opts...)
	applyRetryPolicy(d, o)
	return d, nil
}

// NewSetBackend builds the named set backend (uint64 keys). Options:
// WithProcs.
func NewSetBackend(name string, opts ...Option) (SetAPI, error) {
	b, o, err := find(KindSet, name, opts)
	if err != nil {
		return nil, err
	}
	s := b.Set(opts...)
	applyRetryPolicy(s, o)
	return s, nil
}
