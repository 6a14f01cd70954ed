package repro

import (
	"repro/internal/adaptive"
	"repro/internal/cmanager"
	"repro/internal/core"
	"repro/internal/set"
	"repro/internal/stack"
)

// This file is the uniform face of the backend catalog: one
// capability-typed operation interface per object kind, the
// functional options every catalog constructor understands, and the
// thin adapters that close the gaps between backends (pid-less
// Figure 2 objects, Try*-shaped weak objects).
// See catalog.go for the descriptors and the options constructors.

// StackAPI is the one stack contract every backend in the catalog
// implements: LIFO push/pop taking the calling process identity
// (pids in [0, n); pid-oblivious backends ignore it). Push reports
// ErrStackFull on a full bounded stack; Pop reports ErrStackEmpty.
// Backends whose entry is Weak make single attempts that may
// additionally return ErrStackAborted under interference (with no
// effect); all other backends retry or serialize internally and
// never surface an abort.
type StackAPI[T any] interface {
	Push(pid int, v T) error
	Pop(pid int) (T, error)
}

// QueueAPI is the FIFO sibling of StackAPI: Enqueue/Dequeue with the
// same pid, bound, and abort conventions (ErrQueueFull,
// ErrQueueEmpty, ErrQueueAborted).
type QueueAPI[T any] interface {
	Enqueue(pid int, v T) error
	Dequeue(pid int) (T, error)
}

// DequeAPI is the double-ended contract over the HLM array deque
// family. Values are uint32 — the packed-word representation of the
// underlying array (see internal/deque). The error conventions
// follow StackAPI with the deque sentinels (ErrDequeFull,
// ErrDequeEmpty, ErrDequeAborted); each side reports full when its
// own sentinel supply is exhausted (the array is non-circular).
type DequeAPI interface {
	PushLeft(pid int, v uint32) error
	PushRight(pid int, v uint32) error
	PopLeft(pid int) (uint32, error)
	PopRight(pid int) (uint32, error)
}

// SetAPI is the membership contract: total add/remove/contains over
// uint64 keys. The boolean is the operation's answer (Add: newly
// inserted; Remove: was present; Contains: member). The error is nil
// on every strong backend; Weak backends make single attempts that
// may return ErrSetAborted with no effect (the boolean is then
// meaningless).
type SetAPI interface {
	Add(pid int, k uint64) (bool, error)
	Remove(pid int, k uint64) (bool, error)
	Contains(pid int, k uint64) (bool, error)
}

// options collects the settings the functional options write. Every
// catalog constructor understands the full set and ignores the knobs
// its backend does not have.
type options struct {
	capacity    int
	procs       int
	shards      int
	width       int
	pooled      bool
	adaptive    bool
	thresholds  *adaptive.Thresholds
	retryMgr    string
	retryBudget int
}

// thr resolves the adaptation thresholds an adaptive constructor uses.
func (o options) thr() adaptive.Thresholds {
	if o.thresholds != nil {
		return *o.thresholds
	}
	return adaptive.DefaultThresholds()
}

// Option configures a catalog constructor (NewStackBackend and
// siblings, or a Backend descriptor's closures).
type Option func(*options)

// applyOptions resolves opts over the defaults: capacity 1024, 8
// processes, automatic shard count, default elimination width.
func applyOptions(opts []Option) options {
	o := options{capacity: 1024, procs: 8}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithCapacity bounds the object at k elements. Backends without a
// bound (the unbounded lock-free baselines) ignore it.
func WithCapacity(k int) Option { return func(o *options) { o.capacity = k } }

// WithProcs declares the number of processes n; strong operations
// take pids in [0, n). Pid-oblivious backends ignore it.
func WithProcs(n int) Option { return func(o *options) { o.procs = n } }

// WithShards sets the stripe count of the sharded queue (0 picks
// min(n, 8)); other backends ignore it.
func WithShards(s int) Option { return func(o *options) { o.shards = s } }

// WithWidth sets the elimination stack's exchange-array width (0
// picks the default); other backends ignore it.
func WithWidth(w int) Option { return func(o *options) { o.width = w } }

// WithPooled asks for a backend whose nodes or value slots are
// recycled, with 0 steady-state allocs/op. Backends that already run
// so — the pooled entries (treiber, michael-scott-pooled, the bounded
// stack ladder) and the in-place ring queues — are unchanged; any
// other backend reports an error.
func WithPooled() Option { return func(o *options) { o.pooled = true } }

// WithAdaptive redirects a constructor to the kind's contention-
// adaptive meta-backend (stack/adaptive and siblings): the same object
// contract served by a ladder of catalog rungs that the object morphs
// between as live contention signals cross the WithThresholds
// boundaries. Kinds without an adaptive entry (the deque) report an
// error; the adaptive backends themselves are unchanged.
func WithAdaptive() Option { return func(o *options) { o.adaptive = true } }

// WithThresholds replaces DefaultThresholds on an adaptive backend:
// when the object climbs and descends its rung ladder, and how long a
// migration window may spin for quiescence before aborting. Other
// backends ignore the option. ForcingThresholds makes every decision
// window migrate — the harness configuration that puts the epoch-gated
// handoff on every tested path.
func WithThresholds(t Thresholds) Option { return func(o *options) { o.thresholds = &t } }

// WithRetryPolicy bounds the retry loop of the non-blocking (Figure 2)
// backends: each operation makes at most budget weak attempts, paced
// by the named contention manager ("none", "yield", "spin", "backoff",
// "adaptive" — see internal/cmanager), and a fully exhausted operation
// degrades gracefully instead of spinning unboundedly — container ops
// surface ErrExhausted with no effect; set updates shed and report
// false. budget 0 keeps the paper's unbounded loop (manager pacing
// still applies). Backends without a retry loop ignore the option.
func WithRetryPolicy(manager string, budget int) Option {
	return func(o *options) { o.retryMgr, o.retryBudget = manager, budget }
}

// retryPolicied is the surface the Figure 2 backends expose for
// WithRetryPolicy (see e.g. internal/stack.NonBlocking.SetRetryPolicy).
type retryPolicied interface {
	SetRetryPolicy(m core.Manager, budget int)
}

// applyRetryPolicy forwards a WithRetryPolicy setting to the backend
// underneath the adapters, when it has a retry loop to bound. The walk
// is layer-aware — one Unwrap hop at a time, first policy surface wins
// — so a wrapper with its own retry loop (the adaptive set pacing its
// cow rung) receives the policy instead of having it skipped past to
// the rung underneath.
func applyRetryPolicy(x any, o options) {
	if o.retryMgr == "" && o.retryBudget == 0 {
		return
	}
	for {
		if rp, ok := x.(retryPolicied); ok {
			rp.SetRetryPolicy(cmanager.ByName(o.retryMgr), o.retryBudget)
			return
		}
		u, ok := x.(Unwrapper)
		if !ok {
			return
		}
		x = u.Unwrap()
	}
}

// Unwrapper is implemented by the adapter types below: Unwrap
// returns the concrete backend value behind a capability interface,
// for callers that need an optional extension the uniform contract
// does not carry (PoolStats, Snapshot, combining Stats, ...).
type Unwrapper interface{ Unwrap() any }

// Unwrap peels every adapter layer off a catalog-built object and
// returns the concrete backend underneath (or x itself when it is
// not wrapped). Assert the result for optional extensions:
//
//	s, _ := repro.NewStackBackend[uint64]("treiber", repro.WithPooled())
//	stats := repro.Unwrap(s).(interface{ PoolStats() repro.PoolStats }).PoolStats()
func Unwrap(x any) any {
	for {
		u, ok := x.(Unwrapper)
		if !ok {
			return x
		}
		x = u.Unwrap()
	}
}

// weakStack adapts the Figure 1 stack: the uniform Push/Pop are its
// single attempts, so ErrStackAborted can surface.
type weakStack[T any] struct{ s *stack.Abortable[T] }

func (a weakStack[T]) Push(pid int, v T) error { return a.s.TryPush(pid, v) }
func (a weakStack[T]) Pop(pid int) (T, error)  { return a.s.TryPop(pid) }
func (a weakStack[T]) Unwrap() any             { return a.s }

// pidlessQueue adapts a pid-oblivious strong queue (Figure 2).
type pidlessQueue[T any, Q interface {
	Enqueue(T) error
	Dequeue() (T, error)
}] struct{ q Q }

func (a pidlessQueue[T, Q]) Enqueue(_ int, v T) error { return a.q.Enqueue(v) }
func (a pidlessQueue[T, Q]) Dequeue(_ int) (T, error) { return a.q.Dequeue() }
func (a pidlessQueue[T, Q]) Unwrap() any              { return a.q }

func liftQueue[T any, Q interface {
	Enqueue(T) error
	Dequeue() (T, error)
}](q Q) QueueAPI[T] {
	return pidlessQueue[T, Q]{q}
}

// weakQueue adapts a Figure 1 queue (single attempts, may abort).
type weakQueue[T any, Q interface {
	TryEnqueue(T) error
	TryDequeue() (T, error)
}] struct{ q Q }

func (a weakQueue[T, Q]) Enqueue(_ int, v T) error { return a.q.TryEnqueue(v) }
func (a weakQueue[T, Q]) Dequeue(_ int) (T, error) { return a.q.TryDequeue() }
func (a weakQueue[T, Q]) Unwrap() any              { return a.q }

func liftWeakQueue[T any, Q interface {
	TryEnqueue(T) error
	TryDequeue() (T, error)
}](q Q) QueueAPI[T] {
	return weakQueue[T, Q]{q}
}

// pidlessDeque adapts the pid-oblivious retrying deque.
type pidlessDeque[D interface {
	PushLeft(uint32) error
	PushRight(uint32) error
	PopLeft() (uint32, error)
	PopRight() (uint32, error)
}] struct{ d D }

func (a pidlessDeque[D]) PushLeft(_ int, v uint32) error  { return a.d.PushLeft(v) }
func (a pidlessDeque[D]) PushRight(_ int, v uint32) error { return a.d.PushRight(v) }
func (a pidlessDeque[D]) PopLeft(_ int) (uint32, error)   { return a.d.PopLeft() }
func (a pidlessDeque[D]) PopRight(_ int) (uint32, error)  { return a.d.PopRight() }
func (a pidlessDeque[D]) Unwrap() any                     { return a.d }

// weakDeque adapts the abortable HLM deque (single attempts).
type weakDeque[D interface {
	TryPushLeft(uint32) error
	TryPushRight(uint32) error
	TryPopLeft() (uint32, error)
	TryPopRight() (uint32, error)
}] struct{ d D }

func (a weakDeque[D]) PushLeft(_ int, v uint32) error  { return a.d.TryPushLeft(v) }
func (a weakDeque[D]) PushRight(_ int, v uint32) error { return a.d.TryPushRight(v) }
func (a weakDeque[D]) PopLeft(_ int) (uint32, error)   { return a.d.TryPopLeft() }
func (a weakDeque[D]) PopRight(_ int) (uint32, error)  { return a.d.TryPopRight() }
func (a weakDeque[D]) Unwrap() any                     { return a.d }

// strongSet adapts a total, never-aborting set to SetAPI (the error
// is always nil).
type strongSet[S interface {
	Add(int, uint64) bool
	Remove(int, uint64) bool
	Contains(int, uint64) bool
}] struct{ s S }

func (a strongSet[S]) Add(pid int, k uint64) (bool, error)      { return a.s.Add(pid, k), nil }
func (a strongSet[S]) Remove(pid int, k uint64) (bool, error)   { return a.s.Remove(pid, k), nil }
func (a strongSet[S]) Contains(pid int, k uint64) (bool, error) { return a.s.Contains(pid, k), nil }
func (a strongSet[S]) Unwrap() any                              { return a.s }

func liftSet[S interface {
	Add(int, uint64) bool
	Remove(int, uint64) bool
	Contains(int, uint64) bool
}](s S) SetAPI {
	return strongSet[S]{s}
}

// weakSet adapts the abortable copy-on-write set (single attempts;
// TryContains never aborts, but keeps the uniform shape).
type weakSet struct{ s *set.Abortable }

func (a weakSet) Add(_ int, k uint64) (bool, error)      { return a.s.TryAdd(k) }
func (a weakSet) Remove(_ int, k uint64) (bool, error)   { return a.s.TryRemove(k) }
func (a weakSet) Contains(_ int, k uint64) (bool, error) { return a.s.TryContains(k) }
func (a weakSet) Unwrap() any                            { return a.s }
