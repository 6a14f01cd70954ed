package adaptive

import (
	"repro/internal/core"
	"repro/internal/queue"
)

// Queue is the contention-adaptive FIFO queue: sensitive while solo,
// flat-combining once the slow path says contention pays for batching,
// pid-striped shards once even the combiner saturates (the E16
// regime). The sharded rung relaxes cross-shard order exactly as
// queue.Sharded documents; descending restores the strict FIFO rungs.
type Queue[T any] struct {
	*meta[T, container[T]]
}

// NewQueue returns an adaptive queue of total capacity k for n
// processes governed by t; shards parameterizes the top rung (<= 0
// picks queue.NewSharded's default).
func NewQueue[T any](k, n, shards int, t Thresholds) *Queue[T] {
	ladder := []step[T, container[T]]{
		{"sensitive", func(pid int, snap []T) container[T] {
			return fill[T](sensQueue[T]{queue.NewSensitive[T](k, n)}, pid, snap)
		}},
		{"combining", func(pid int, snap []T) container[T] {
			return fill[T](combQueue[T]{queue.NewCombining[T](k, n)}, pid, snap)
		}},
		{"sharded", func(pid int, snap []T) container[T] {
			return fill[T](shardQueue[T]{queue.NewSharded[T](k, n, shards)}, pid, snap)
		}},
	}
	return &Queue[T]{newMeta(n, t, nil, ladder, t.containerRule)}
}

// Enqueue appends v on behalf of pid; it returns nil or queue.ErrFull
// and never aborts, whatever rung serves it.
func (q *Queue[T]) Enqueue(pid int, v T) error {
	_, err := q.do(pid, func(c container[T]) (T, error) {
		var zero T
		return zero, c.put(pid, v)
	})
	return err
}

// Dequeue removes a value on behalf of pid; it returns the value or
// queue.ErrEmpty and never aborts.
func (q *Queue[T]) Dequeue(pid int) (T, error) {
	return q.do(pid, func(c container[T]) (T, error) { return c.take(pid) })
}

// Progress reports StarvationFree: every rung of the ladder is.
func (q *Queue[T]) Progress() core.Progress { return core.StarvationFree }

// sensQueue adapts the sensitive rung; contention is the guard's
// slow-path counter.
type sensQueue[T any] struct{ q *queue.Sensitive[T] }

func (a sensQueue[T]) put(pid int, v T) error  { return a.q.Enqueue(pid, v) }
func (a sensQueue[T]) take(pid int) (T, error) { return a.q.Dequeue(pid) }
func (a sensQueue[T]) snapshot() []T           { return a.q.Snapshot() }
func (a sensQueue[T]) contended() uint64       { return a.q.Guard().Stats().Slow }
func (a sensQueue[T]) inner() any              { return a.q }

// combQueue adapts the combining rung; contention is the publication
// counter: requests that used up the shortcut's lock.SpinBudget
// attempts or met a running combiner.
type combQueue[T any] struct{ q *queue.Combining[T] }

func (a combQueue[T]) put(pid int, v T) error  { return a.q.Enqueue(pid, v) }
func (a combQueue[T]) take(pid int) (T, error) { return a.q.Dequeue(pid) }
func (a combQueue[T]) snapshot() []T           { return a.q.Snapshot() }
func (a combQueue[T]) contended() uint64       { return a.q.Stats().Published }
func (a combQueue[T]) inner() any              { return a.q }

// shardQueue adapts the sharded rung; contention is the summed
// publication counter of every shard.
type shardQueue[T any] struct{ q *queue.Sharded[T] }

func (a shardQueue[T]) put(pid int, v T) error  { return a.q.Enqueue(pid, v) }
func (a shardQueue[T]) take(pid int) (T, error) { return a.q.Dequeue(pid) }
func (a shardQueue[T]) snapshot() []T           { return a.q.Snapshot() }
func (a shardQueue[T]) contended() uint64 {
	var t uint64
	for i := 0; i < a.q.Shards(); i++ {
		t += a.q.ShardStats(i).Published
	}
	return t
}
func (a shardQueue[T]) inner() any { return a.q }

var _ queue.Strong[int] = (*Queue[int])(nil)
