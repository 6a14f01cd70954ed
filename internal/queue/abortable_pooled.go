package queue

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// AbortablePooled is the allocation-free backend of the abortable
// bounded queue. The boxed Abortable stores each enqueued value as a
// fresh GC-boxed record behind a memory.Ref (one allocation per
// enqueue); here the ring's k slots ARE the pool — each slot's value
// register is a plain memory.Word rewritten in place, and the slot's
// sequence register, which the protocol already maintains (2*pos free
// / 2*pos+1 occupied / 2*(pos+k) freed), is the §2.2 tag that makes
// the recycling safe: a value cell is only written by the enqueuer
// that claimed ticket pos via the TAIL CAS, and only read by the
// dequeuer that observed seq = 2*pos+1, so no stale process ever
// touches a recycled slot. The steady state allocates nothing per
// operation (experiment E17).
//
// Values are uint64 (they live in a Word register; compare the packed
// backend's uint32 restriction). The linearization points are
// identical to Abortable's — see that type's comment.
type AbortablePooled struct {
	head *memory.Word
	tail *memory.Word
	seqs *memory.Words
	vals *memory.Words
	k    uint64
}

// NewAbortablePooled returns a pooled abortable queue of capacity
// k >= 1.
func NewAbortablePooled(k int) *AbortablePooled {
	return NewAbortablePooledObserved(k, nil)
}

// NewAbortablePooledObserved returns a pooled abortable queue whose
// every shared access is reported to obs first (nil disables
// instrumentation). The access counts match the boxed backend's: a
// successful attempt costs 5 shared accesses.
func NewAbortablePooledObserved(k int, obs memory.Observer) *AbortablePooled {
	if k < 1 {
		panic("queue: capacity must be >= 1")
	}
	return &AbortablePooled{
		head: memory.NewWordObserved(0, obs),
		tail: memory.NewWordObserved(0, obs),
		// Slot j is initially free for ticket j (lap 0).
		seqs: memory.NewWordsInit(k, func(j int) uint64 { return 2 * uint64(j) }, obs),
		vals: memory.NewWordsObserved(k, 0, obs),
		k:    uint64(k),
	}
}

// Capacity returns k, the number of storable elements.
func (q *AbortablePooled) Capacity() int { return int(q.k) }

// TryEnqueue makes one attempt to append v; nil, ErrFull, or
// ErrAborted (no effect). Solo attempts never abort.
func (q *AbortablePooled) TryEnqueue(v uint64) error {
	pos := q.tail.Read()
	j := int(pos % q.k)
	seq := q.seqs.Read(j)
	switch {
	case seq == 2*pos: // slot free for this ticket: claim it
		if !q.tail.CAS(pos, pos+1) {
			return ErrAborted // another enqueuer claimed first
		}
		q.vals.Write(j, v)
		q.seqs.Write(j, 2*pos+1) // publish
		return nil
	case seq < 2*pos: // previous-lap value not yet fully dequeued
		if h := q.head.Read(); h+q.k == pos {
			return ErrFull // proven: tail-head = k (see Abortable)
		}
		return ErrAborted // a dequeuer is mid-flight
	default: // seq > 2*pos: our tail read is stale
		return ErrAborted
	}
}

// TryDequeue makes one attempt to remove the oldest value; the value,
// ErrEmpty, or ErrAborted (no effect). Solo attempts never abort.
func (q *AbortablePooled) TryDequeue() (uint64, error) {
	pos := q.head.Read()
	j := int(pos % q.k)
	seq := q.seqs.Read(j)
	switch {
	case seq == 2*pos+1: // occupied and ready: claim it
		if !q.head.CAS(pos, pos+1) {
			return 0, ErrAborted // another dequeuer claimed first
		}
		v := q.vals.Read(j)
		q.seqs.Write(j, 2*(pos+q.k)) // free the slot for the next lap
		return v, nil
	case seq == 2*pos: // no enqueue has published ticket pos
		if t := q.tail.Read(); t == pos {
			return 0, ErrEmpty // proven: head = tail (see Abortable)
		}
		return 0, ErrAborted // an enqueuer is mid-flight
	default: // stale head read or mid-flight previous-lap dequeue
		return 0, ErrAborted
	}
}

// Len returns the number of elements; quiescent states only.
func (q *AbortablePooled) Len() int { return int(q.tail.Read() - q.head.Read()) }

// Snapshot returns the contents oldest-first; quiescent states only.
func (q *AbortablePooled) Snapshot() []uint64 {
	h, t := q.head.Read(), q.tail.Read()
	out := make([]uint64, 0, t-h)
	for pos := h; pos < t; pos++ {
		out = append(out, q.vals.Read(int(pos%q.k)))
	}
	return out
}

// Progress classifies the pooled abortable queue (see
// Abortable.Progress).
func (q *AbortablePooled) Progress() core.Progress { return core.ObstructionFree }

var _ Weak[uint64] = (*AbortablePooled)(nil)
