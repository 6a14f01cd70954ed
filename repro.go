// Package repro is the public API of the contention-sensitive
// concurrent-objects library, a reproduction of Mostefaoui & Raynal,
// "Looking for Efficient Implementations of Concurrent Objects"
// (IRISA PI-1969 / PACT 2011).
//
// The headline types are re-exported from the internal packages:
//
//   - Stack / Queue — the paper's Figure 3 objects: linearizable,
//     starvation-free, and contention-sensitive (a contention-free
//     operation takes six shared-memory accesses and no lock).
//   - AbortableStack / AbortableQueue — the Figure 1 weak objects:
//     single attempts that may return ErrStackAborted/ErrQueueAborted
//     under interference, with no effect.
//   - NonBlockingStack / NonBlockingQueue — the Figure 2 retry
//     constructions.
//   - Guard / Do — the generic contention-sensitive protocol, for
//     building the same tower over any abortable object.
//   - NewStarvationFreeLock — the §4.4 transformation of a
//     deadlock-free lock into a starvation-free one.
//   - CombiningStack / CombiningQueue — the scaling tier: the same
//     interface and lock-free fast path, with the contended path
//     batched by flat combining (one combiner serves every published
//     request per lock acquisition) instead of serializing processes
//     through the fallback lock one at a time.
//   - ShardedQueue — pid-striping over K flat-combining sub-queues
//     with owner-first, steal-on-empty dequeue; per-shard FIFO,
//     relaxed global order, maximal parallelism.
//   - TreiberStack / PooledQueue — the unbounded lock-free baselines:
//     Treiber and Michael-Scott over recycled pooled nodes with §2.2
//     sequence tags, 0 steady-state allocs/op at any T (experiment
//     E17; see DESIGN.md's memory-reclamation section).
//   - Set / AbortableSet / NonBlockingSet / LockFreeSet /
//     CombiningSet — the set tier: a sorted list-based set carried
//     through the same ladder, opening the read-mostly membership
//     workload (experiment E18). Contains is wait-free on the
//     copy-on-write backends; LockFreeSet is the Harris/Michael list
//     over recycled tagged nodes.
//   - HashSet — the split-ordered (Shalev-Shavit) hash layer over the
//     same pooled lock-free list: O(1) expected Add/Remove/Contains
//     whatever the key range, with CAS-published table doubling and
//     per-bucket sentinel shortcuts (experiment E19). Keys must be
//     < 2^63 (one reserved bit).
//
// Strong operations take a pid in [0, n): the paper's model of n
// known asynchronous processes. Give each goroutine that touches one
// object a distinct pid.
//
// # One catalog, one contract
//
// The paper's point is a ladder of implementations of the same object
// type, distinguished only by capabilities — and the API says so.
// Every backend above also sits behind one capability-typed contract
// per object kind (StackAPI, QueueAPI, DequeAPI, SetAPI; see api.go)
// and is described by a machine-readable catalog entry:
//
//	for _, b := range repro.Catalog() { ... }        // name, kind, tier,
//	                                                 // progress, allocation,
//	                                                 // experiments, constructors
//	s, err := repro.NewStackBackend[int]("sensitive",
//	    repro.WithCapacity(1024), repro.WithProcs(8))
//
// The options constructors (NewStackBackend, NewQueueBackend,
// NewDequeBackend, NewSetBackend) resolve any catalog name —
// WithPooled insists on a recycling backend — and the
// harnesses (internal/bench, cmd/lincheck, the lockstep fuzzers)
// enumerate the catalog instead of keeping backend lists of their
// own. Experiment E20 pins the unified dispatch cost at a few
// percent of direct method calls. The concrete-type constructors
// below predate the catalog and remain the right choice when you
// want the concrete type and its extensions directly; repro.Unwrap
// reaches those extensions from behind the interfaces.
//
// See README.md for a quickstart and the catalog table, DESIGN.md for
// the system inventory, and EXPERIMENTS.md for the reproduction
// results; cmd/contbench regenerates every table.
package repro

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/lock"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/set"
	"repro/internal/stack"
)

// Stack is the contention-sensitive, starvation-free bounded stack
// (Figure 3). Use NewStack.
type Stack[T any] = stack.Sensitive[T]

// AbortableStack is the weak bounded stack (Figure 1). Use
// NewAbortableStack.
type AbortableStack[T any] = stack.Abortable[T]

// NonBlockingStack is the retry-until-success stack (Figure 2). Use
// NewNonBlockingStack.
type NonBlockingStack[T any] = stack.NonBlocking[T]

// TreiberStack is the classic unbounded lock-free stack baseline,
// over recycled pooled nodes: zero steady-state allocations per
// operation, with the §2.2 sequence tags (CASed together with the node
// handle) making the recycling ABA-safe. Operations take the calling
// pid. Use NewTreiberStack.
type TreiberStack[T any] = stack.Treiber[T]

// Queue is the contention-sensitive, starvation-free bounded FIFO
// queue. Use NewQueue.
type Queue[T any] = queue.Sensitive[T]

// AbortableQueue is the weak bounded queue. Use NewAbortableQueue.
type AbortableQueue[T any] = queue.Abortable[T]

// NonBlockingQueue is the retry-until-success queue.
type NonBlockingQueue[T any] = queue.NonBlocking[T]

// Guard carries the Figure 3 protocol state for one object; see Do.
type Guard = core.Guard

// Progress is the paper's liveness hierarchy (obstruction-free <
// non-blocking < starvation-free < wait-free).
type Progress = core.Progress

// Lock is an identity-oblivious mutual-exclusion lock.
type Lock = lock.Lock

// PidLock is a mutual-exclusion lock taking the caller's process
// identity.
type PidLock = lock.PidLock

// Progress levels, re-exported from internal/core.
const (
	ObstructionFree = core.ObstructionFree
	NonBlocking     = core.NonBlocking
	StarvationFree  = core.StarvationFree
	WaitFree        = core.WaitFree
)

// Sentinel results, re-exported from the internal packages.
var (
	ErrStackFull    = stack.ErrFull
	ErrStackEmpty   = stack.ErrEmpty
	ErrStackAborted = stack.ErrAborted
	ErrQueueFull    = queue.ErrFull
	ErrQueueEmpty   = queue.ErrEmpty
	ErrQueueAborted = queue.ErrAborted
)

// ErrExhausted reports a WithRetryPolicy budget spent without the
// operation taking effect: every weak attempt aborted, and the
// operation degraded gracefully (shed, no effect) instead of retrying
// unboundedly. Re-exported from internal/core.
var ErrExhausted = core.ErrExhausted

// NewStack returns a contention-sensitive, starvation-free stack of
// capacity k for n processes — the paper's exact Figure 3
// configuration (abortable stack + the round-robin transformation
// over a deadlock-free TTAS lock, lock.NewFigure3).
func NewStack[T any](k, n int) *Stack[T] { return stack.NewSensitive[T](k, n) }

// NewAbortableStack returns the Figure 1 weak stack of capacity k for
// n processes: TryPush(pid, v)/TryPop(pid) recycle value slots through
// per-pid free lists, so pids are in [0, n).
func NewAbortableStack[T any](k, n int) *AbortableStack[T] { return stack.NewAbortable[T](k, n) }

// NewNonBlockingStack returns the Figure 2 stack of capacity k for n
// processes (Push(pid, v)/Pop(pid), pids in [0, n)).
func NewNonBlockingStack[T any](k, n int) *NonBlockingStack[T] {
	return stack.NewNonBlocking[T](k, n)
}

// NewTreiberStack returns an empty unbounded lock-free stack for n
// processes (pids in [0, n)).
func NewTreiberStack[T any](n int) *TreiberStack[T] { return stack.NewTreiber[T](n) }

// EliminationStack is an unbounded lock-free stack with an
// elimination-backoff array: concurrent push/pop pairs can serve each
// other without touching the stack (see internal/stack).
type EliminationStack[T any] = stack.Elimination[T]

// NewEliminationStack returns an elimination stack for n processes
// (pids in [0, n)) with `width` exchange slots (0 for the default).
func NewEliminationStack[T any](width, n int) *EliminationStack[T] {
	return stack.NewElimination[T](width, n)
}

// NewQueue returns a contention-sensitive, starvation-free FIFO queue
// of capacity k for n processes.
func NewQueue[T any](k, n int) *Queue[T] { return queue.NewSensitive[T](k, n) }

// NewAbortableQueue returns the weak FIFO queue of capacity k.
func NewAbortableQueue[T any](k int) *AbortableQueue[T] { return queue.NewAbortable[T](k) }

// NewNonBlockingQueue returns the retrying FIFO queue of capacity k.
func NewNonBlockingQueue[T any](k int) *NonBlockingQueue[T] { return queue.NewNonBlocking[T](k) }

// CombiningStack is the flat-combining stack: Stack's interface and
// lock-free fast path with the contended path batched (see
// internal/combine). Use NewCombiningStack.
type CombiningStack[T any] = stack.Combining[T]

// CombiningQueue is the flat-combining FIFO queue. Use
// NewCombiningQueue.
type CombiningQueue[T any] = queue.Combining[T]

// ShardedQueue is the pid-striped queue: K flat-combining shards with
// owner-first, steal-on-empty dequeue. Each shard is FIFO and
// linearizable; K > 1 relaxes the global order (values that spread
// across shards — different home shards, a spill on full — may be
// dequeued out of enqueue order) while every value is still dequeued
// exactly once. Use NewShardedQueue.
type ShardedQueue[T any] = queue.Sharded[T]

// CombiningStats is a snapshot of a combining object's path and
// batching counters (fast-path share, batch sizes, retries).
type CombiningStats = combine.Stats

// NewCombiningStack returns a flat-combining stack of capacity k for
// n processes.
func NewCombiningStack[T any](k, n int) *CombiningStack[T] { return stack.NewCombining[T](k, n) }

// NewCombiningQueue returns a flat-combining FIFO queue of capacity k
// for n processes.
func NewCombiningQueue[T any](k, n int) *CombiningQueue[T] { return queue.NewCombining[T](k, n) }

// NewShardedQueue returns a queue of total capacity k for n
// processes, pid-striped over the given number of shards (0 picks
// min(n, 8)).
func NewShardedQueue[T any](k, n, shards int) *ShardedQueue[T] {
	return queue.NewSharded[T](k, n, shards)
}

// PooledQueue is the unbounded lock-free Michael-Scott queue over
// recycled pooled nodes (the original paper's free-list discipline,
// counted pointers included). Operations take the calling pid. Use
// NewPooledQueue.
type PooledQueue[T any] = queue.MichaelScott[T]

// PoolStats is a snapshot of a pooled structure's recycling counters.
type PoolStats = memory.PoolStats

// NewPooledQueue returns an empty pooled Michael-Scott queue for n
// processes (pids in [0, n)).
func NewPooledQueue[T any](n int) *PooledQueue[T] { return queue.NewMichaelScott[T](n) }

// NewCombiningPooledStack is NewCombiningStack[uint64](k, n): the
// Figure 1 stack under every combining stack recycles its value slots,
// so the whole strong path runs allocation-free at any T.
func NewCombiningPooledStack(k, n int) *CombiningStack[uint64] {
	return stack.NewCombining[uint64](k, n)
}

// Deque is the contention-sensitive, starvation-free double-ended
// queue built over the Herlihy-Luchangco-Moir obstruction-free array
// deque (the paper's reference [8]). Values are uint32; the array is
// non-circular, so each side reports full when its own sentinel
// supply is exhausted (see internal/deque).
type Deque = deque.Sensitive

// AbortableDeque is the weak HLM deque: single attempts that may
// return ErrDequeAborted.
type AbortableDeque = deque.Abortable

// NonBlockingDeque is the Figure 2 retry construction over the weak
// deque.
type NonBlockingDeque = deque.NonBlocking

// Deque sentinel results.
var (
	ErrDequeFull    = deque.ErrFull
	ErrDequeEmpty   = deque.ErrEmpty
	ErrDequeAborted = deque.ErrAborted
)

// NewDeque returns a contention-sensitive, starvation-free deque of
// capacity k for n processes.
func NewDeque(k, n int) *Deque { return deque.NewSensitive(k, n) }

// NewAbortableDeque returns the weak HLM deque of capacity k.
func NewAbortableDeque(k int) *AbortableDeque { return deque.NewAbortable(k) }

// NewNonBlockingDeque returns the retrying deque of capacity k.
func NewNonBlockingDeque(k int) *NonBlockingDeque { return deque.NewNonBlocking(k) }

// Set is the contention-sensitive, starvation-free sorted set: the
// Figure 3 construction over the abortable copy-on-write list.
// Updates are starvation-free; Contains is wait-free (one shared read
// plus a walk of immutable private memory) and bypasses the guard.
// Keys are uint64 throughout the set tier. Use NewSet.
type Set = set.Sensitive

// AbortableSet is the weak sorted set: single attempts that may
// return ErrSetAborted with no effect. TryContains never aborts. Use
// NewAbortableSet.
type AbortableSet = set.Abortable

// NonBlockingSet is the Figure 2 retry construction over the weak
// set. Use NewNonBlockingSet.
type NonBlockingSet = set.NonBlocking

// LockFreeSet is the Harris/Michael lock-free linked-list set over
// pooled, recycled nodes with tagged markable next registers: disjoint
// windows update in parallel, and the §2.2 sequence tags keep node
// recycling ABA-safe (see DESIGN.md's set-tier section). Use
// NewLockFreeSet.
type LockFreeSet = set.Harris

// CombiningSet is the flat-combining set: the same interface with the
// contended path batched by one combiner per lock acquisition. Use
// NewCombiningSet.
type CombiningSet = set.Combining

// HashSet is the split-ordered hash set: the same pooled Harris list
// as LockFreeSet behind a lazily split, CAS-doubled bucket index, so
// operations touch O(1) expected nodes instead of walking the whole
// sorted prefix. Lock-free; keys must be < 2^63 (one bit is reserved
// to keep bucket sentinels and regular keys apart in split order).
// Use NewHashSet.
type HashSet = set.Hash

// ErrSetAborted is the set tier's ⊥: the weak attempt detected
// interference and had no effect.
var ErrSetAborted = set.ErrAborted

// NewSet returns a contention-sensitive, starvation-free sorted set
// for n processes (pids in [0, n)).
func NewSet(n int) *Set { return set.NewSensitive(n) }

// NewAbortableSet returns the weak copy-on-write sorted set.
func NewAbortableSet() *AbortableSet { return set.NewAbortable() }

// NewNonBlockingSet returns the retrying sorted set.
func NewNonBlockingSet() *NonBlockingSet { return set.NewNonBlocking() }

// NewLockFreeSet returns the Harris/Michael lock-free list-based set
// for n processes (pids in [0, n)).
func NewLockFreeSet(n int) *LockFreeSet { return set.NewHarris(n) }

// NewCombiningSet returns a flat-combining sorted set for n processes.
func NewCombiningSet(n int) *CombiningSet { return set.NewCombining(n) }

// NewHashSet returns the split-ordered hash set for n processes (pids
// in [0, n)).
func NewHashSet(n int) *HashSet { return set.NewHash(n) }

// AdaptiveStack is the contention-adaptive stack: one LIFO contract
// served by a ladder of catalog rungs (sensitive ⇄ flat combining)
// that the object morphs between as live contention signals — the
// guard's slow-path counter, the combiner's publication counter, and
// the set of active pids per decision window — cross the Thresholds
// boundaries. Morphs use an epoch-gated dual-structure handoff that
// preserves the LIFO state and linearizability mid-flight (see
// internal/adaptive and DESIGN.md §9). Use NewAdaptiveStack.
type AdaptiveStack[T any] = adaptive.Stack[T]

// AdaptiveQueue is the FIFO sibling of AdaptiveStack, with a
// three-rung ladder: sensitive ⇄ flat combining ⇄ pid-striped shards.
// The top rung relaxes cross-shard FIFO order exactly as ShardedQueue
// documents; descending restores strict FIFO. Use NewAdaptiveQueue.
type AdaptiveQueue[T any] = adaptive.Queue[T]

// AdaptiveSet is the contention-adaptive sorted set: copy-on-write
// while small and calm, the Harris/Michael list once size or abort
// rate says the single COW root is the bottleneck, the split-ordered
// hash layer once the sorted walk dominates. Keys must be < 2^63 (the
// hash rung's reserved bit). Use NewAdaptiveSet.
type AdaptiveSet = adaptive.Set

// Thresholds parameterizes when an adaptive backend migrates between
// rungs; see DefaultThresholds and ForcingThresholds.
type Thresholds = adaptive.Thresholds

// AdaptiveStats is a snapshot of an adaptive backend's migration
// history: completed and aborted migrations, the current rung, and
// wall-clock time-in-regime per rung.
type AdaptiveStats = adaptive.Stats

// DefaultThresholds returns the adaptation thresholds seeded from the
// measured crossover points (E15, E16, E18/E19).
func DefaultThresholds() Thresholds { return adaptive.DefaultThresholds() }

// ForcingThresholds returns thresholds that migrate on every decision
// window — the harness configuration that forces the epoch-gated
// handoff onto every tested path.
func ForcingThresholds() Thresholds { return adaptive.ForcingThresholds() }

// NewAdaptiveStack returns a contention-adaptive stack of capacity k
// for n processes under DefaultThresholds.
func NewAdaptiveStack[T any](k, n int) *AdaptiveStack[T] {
	return adaptive.NewStack[T](k, n, adaptive.DefaultThresholds())
}

// NewAdaptiveQueue returns a contention-adaptive queue of capacity k
// for n processes under DefaultThresholds (shards as NewShardedQueue).
func NewAdaptiveQueue[T any](k, n, shards int) *AdaptiveQueue[T] {
	return adaptive.NewQueue[T](k, n, shards, adaptive.DefaultThresholds())
}

// NewAdaptiveSet returns a contention-adaptive sorted set for n
// processes under DefaultThresholds.
func NewAdaptiveSet(n int) *AdaptiveSet { return adaptive.NewSet(n, adaptive.DefaultThresholds()) }

// AdaptiveStatsOf walks the adapter layers of a catalog-built object
// one Unwrap hop at a time and returns the first adaptive backend's
// migration stats; ok is false when no layer is adaptive.
func AdaptiveStatsOf(x any) (AdaptiveStats, bool) {
	for {
		if a, ok := x.(interface{ Stats() adaptive.Stats }); ok {
			return a.Stats(), true
		}
		u, ok := x.(Unwrapper)
		if !ok {
			return AdaptiveStats{}, false
		}
		x = u.Unwrap()
	}
}

// NewGuard returns the Figure 3 protocol state over the given lock;
// combine with Do to make any abortable operation contention-sensitive
// and starvation-free. The guard serves the lock's pids, so lk must
// report its process count, as NewStarvationFreeLock's locks do;
// NewGuard panics on a lock that reports none.
func NewGuard(lk PidLock) *Guard {
	l, ok := lk.(interface{ N() int })
	if !ok {
		panic(fmt.Sprintf("repro: NewGuard needs a lock that reports its process count (an N() int method); %T has none", lk))
	}
	return core.NewGuard(l.N(), lk)
}

// Do runs one strong operation of an abortable object under g: the
// lock-free shortcut when uncontended, the serialized slow path
// otherwise. try makes a single attempt and reports ok=false for ⊥.
func Do[R any](g *Guard, pid int, try func() (R, bool)) R { return core.Do(g, pid, try) }

// NewStarvationFreeLock wraps the deadlock-free inner lock with the
// §4.4 FLAG/TURN round-robin, yielding a starvation-free lock for n
// processes.
func NewStarvationFreeLock(inner Lock, n int) PidLock { return lock.NewRoundRobin(inner, n) }

// NewTASLock returns the minimal deadlock-free test-and-set spin lock,
// the paper's baseline assumption for the slow path.
func NewTASLock() Lock { return lock.NewTAS() }

// NewTicketLock returns a starvation-free FIFO ticket lock.
func NewTicketLock() Lock { return lock.NewTicket() }
