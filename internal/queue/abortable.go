package queue

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// Abortable is the abortable bounded FIFO queue: the queue-shaped
// sibling of the paper's Figure 1 stack. TryEnqueue/TryDequeue make a
// single attempt and abort on interference; solo attempts never abort.
//
// The ring is k slots, each a sequence register and a value cell (see
// ring for the placement of HEAD and TAIL). For slot j and ticket pos
// (pos ≡ j mod k) the sequence register takes the values
//
//	2*pos      — free, reserved for the enqueuer holding ticket pos;
//	2*pos+1    — occupied, ready for the dequeuer holding ticket pos;
//	2*(pos+k)  — freed by that dequeuer (= the next lap's "free").
//
// The doubling keeps "occupied for ticket pos" (odd) distinct from
// "free for ticket pos+k" (even) even when k = 1, where pos+1 and
// pos+k would otherwise coincide and let a second enqueuer overwrite
// an element that was never dequeued.
//
// The sequence is the §2.2 tag that lets values live unboxed in the
// ring for every T: each lap of a cell has one writer (the TAIL-CAS
// winner for ticket pos, before it publishes 2*pos+1) and one reader
// (the HEAD-CAS winner, after it observes 2*pos+1; it clears the cell
// before publishing 2*(pos+k)). The atomic sequence accesses order
// the plain cell accesses; see DESIGN §3.
//
// Linearization points (mirroring §3's presentation for the stack):
//
//   - a successful enqueue linearizes at its TAIL CAS (ticket order is
//     claim order, and a value only becomes visible after it);
//   - a successful dequeue linearizes at its HEAD CAS;
//   - an empty report linearizes at its TAIL read: it is issued only
//     when head = pos was read, slot seq = pos (no enqueue published),
//     and then tail = pos — since tail is monotonic and any claim of
//     ticket pos would have advanced it, head = tail = pos held at
//     that read, so the queue was empty then;
//   - a full report linearizes at its HEAD read: it is issued only
//     when tail = pos was read, the slot still carried a previous-lap
//     value, and then head = pos-k — tail cannot have passed pos
//     (the slot's sequence only reaches pos when the ticket pos-k
//     dequeue publishes, which happens after its HEAD CAS, yet head
//     still equals pos-k), so tail-head = k held at that read.
type Abortable[T any] struct {
	ring
	seqs *memory.Words
	vals []T
	obs  memory.Observer
}

// NewAbortable returns an abortable queue of capacity k >= 1.
func NewAbortable[T any](k int) *Abortable[T] {
	return NewAbortableObserved[T](k, nil)
}

// NewAbortableObserved returns an abortable queue whose every shared
// access is reported to obs first (nil disables instrumentation).
func NewAbortableObserved[T any](k int, obs memory.Observer) *Abortable[T] {
	q := &Abortable[T]{ring: newRing(k, obs), vals: make([]T, k), obs: obs}
	// Every slot is initially free for its lap-0 ticket.
	q.seqs = q.newSlots(func(pos uint64) uint64 { return 2 * pos }, obs)
	return q
}

// observe reports a value-cell access, which the paper's access
// count includes although the cell is plain memory.
func (q *Abortable[T]) observe(k memory.Kind) {
	if q.obs != nil {
		q.obs.OnAccess(k)
	}
}

// Capacity returns k, the number of storable elements.
func (q *Abortable[T]) Capacity() int { return int(q.k) }

// TryEnqueue makes one attempt to append v. It returns nil on success,
// ErrFull if the queue is provably full, and ErrAborted on
// interference (no effect). Solo attempts never abort.
//
// A successful attempt costs 5 shared accesses (read TAIL, read slot
// seq, CAS TAIL, write value, publish seq) — the same count as the
// stack's weak operations, which is what makes the E9 comparison to
// Theorem 1 meaningful.
func (q *Abortable[T]) TryEnqueue(v T) error {
	pos := q.ends.tail.Read()
	j := q.slot(pos)
	seq := q.seqs.Read(j)
	switch {
	case seq == 2*pos: // slot free for this ticket: claim it
		if !q.ends.tail.CAS(pos, pos+1) {
			return ErrAborted // another enqueuer claimed first
		}
		q.observe(memory.Write)
		q.vals[j] = v
		q.seqs.Write(j, 2*pos+1) // publish
		return nil
	case seq < 2*pos: // previous-lap value not yet fully dequeued
		if h := q.ends.head.Read(); h+q.k == pos {
			return ErrFull // proven: tail-head = k (see type comment)
		}
		return ErrAborted // a dequeuer is mid-flight
	default: // seq > 2*pos: our tail read is stale
		return ErrAborted
	}
}

// TryDequeue makes one attempt to remove the oldest value. It returns
// the value on success, ErrEmpty if the queue is provably empty, and
// ErrAborted on interference (no effect). Solo attempts never abort.
func (q *Abortable[T]) TryDequeue() (T, error) {
	var zero T
	pos := q.ends.head.Read()
	j := q.slot(pos)
	seq := q.seqs.Read(j)
	switch {
	case seq == 2*pos+1: // occupied and ready: claim it
		if !q.ends.head.CAS(pos, pos+1) {
			return zero, ErrAborted // another dequeuer claimed first
		}
		q.observe(memory.Read)
		v := q.vals[j]
		q.vals[j] = zero             // release the value to the GC
		q.seqs.Write(j, 2*(pos+q.k)) // free the slot for the next lap
		return v, nil
	case seq == 2*pos: // no enqueue has published ticket pos
		if t := q.ends.tail.Read(); t == pos {
			return zero, ErrEmpty // proven: head = tail (see type comment)
		}
		return zero, ErrAborted // an enqueuer is mid-flight
	default: // stale head read or mid-flight previous-lap dequeue
		return zero, ErrAborted
	}
}

// Len returns the number of elements; quiescent states only.
func (q *Abortable[T]) Len() int { return int(q.ends.tail.Read() - q.ends.head.Read()) }

// Snapshot returns the contents oldest-first; quiescent states only.
func (q *Abortable[T]) Snapshot() []T {
	h, t := q.ends.head.Read(), q.ends.tail.Read()
	out := make([]T, 0, t-h)
	for pos := h; pos < t; pos++ {
		q.observe(memory.Read)
		out = append(out, q.vals[q.slot(pos)])
	}
	return out
}

// Progress classifies the abortable queue (see the stack's
// Abortable.Progress: abortable objects sit on the obstruction-free
// rung of the paper's hierarchy).
func (q *Abortable[T]) Progress() core.Progress { return core.ObstructionFree }

var _ Weak[int] = (*Abortable[int])(nil)
