package queue

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// Packed is the abortable queue on the bit-packed register backend:
// each ring slot is a single 64-bit word holding 〈value:32, seq:32〉,
// so an enqueue publishes value and state in one atomic write. This
// drops the cost of a successful weak operation to 4 shared accesses
// (read position, read slot, CAS position, write slot) — one fewer
// than Abortable, because the separate value write disappears
// into the packed word. The slot-state encoding matches Abortable
// (2·pos free / 2·pos+1 occupied / 2·(pos+k) freed), truncated to 32
// bits: states can only be confused after 2³¹ tickets land on the same
// slot within one read-to-CAS window, which is unreachable in
// practice (Abortable's 64-bit sequence has no wrap at all).
type Packed struct {
	ring
	slots *memory.Words
}

func packSlot(value uint32, seq uint32) uint64 { return uint64(value)<<32 | uint64(seq) }
func unpackSlot(w uint64) (value uint32, seq uint32) {
	return uint32(w >> 32), uint32(w)
}

// NewPacked returns a packed abortable queue of capacity k >= 1
// holding uint32 values.
func NewPacked(k int) *Packed { return NewPackedObserved(k, nil) }

// NewPackedObserved returns an instrumented packed queue (nil obs
// disables instrumentation).
func NewPackedObserved(k int, obs memory.Observer) *Packed {
	q := &Packed{ring: newRing(k, obs)}
	q.slots = q.newSlots(func(pos uint64) uint64 {
		return packSlot(0, uint32(2*pos)) // free for its lap-0 ticket
	}, obs)
	return q
}

// Capacity returns k, the number of storable elements.
func (q *Packed) Capacity() int { return int(q.k) }

// TryEnqueue makes one attempt to append v; see Abortable.TryEnqueue
// for the contract. Successful attempts cost 4 shared accesses.
func (q *Packed) TryEnqueue(v uint32) error {
	pos := q.ends.tail.Read()
	j := q.slot(pos)
	_, seq := unpackSlot(q.slots.Read(j))
	switch dif := int32(seq - uint32(2*pos)); {
	case dif == 0: // free for this ticket: claim it
		if !q.ends.tail.CAS(pos, pos+1) {
			return ErrAborted
		}
		q.slots.Write(j, packSlot(v, uint32(2*pos+1))) // value + publish, one word
		return nil
	case dif < 0: // previous-lap value not yet fully dequeued
		if h := q.ends.head.Read(); h+q.k == pos {
			return ErrFull
		}
		return ErrAborted
	default: // stale tail read
		return ErrAborted
	}
}

// TryDequeue makes one attempt to remove the oldest value; see
// Abortable.TryDequeue for the contract. Successful attempts cost 4
// shared accesses.
func (q *Packed) TryDequeue() (uint32, error) {
	pos := q.ends.head.Read()
	j := q.slot(pos)
	v, seq := unpackSlot(q.slots.Read(j))
	switch dif := int32(seq - uint32(2*pos)); {
	case dif == 1: // occupied and ready: claim it
		if !q.ends.head.CAS(pos, pos+1) {
			return 0, ErrAborted
		}
		// The pre-claim read is the value: the slot word can only be
		// rewritten by this ticket's dequeuer (us) once seq = 2·pos+1
		// was observed.
		q.slots.Write(j, packSlot(0, uint32(2*(pos+q.k))))
		return v, nil
	case dif == 0: // no enqueue has published this ticket
		if t := q.ends.tail.Read(); t == pos {
			return 0, ErrEmpty
		}
		return 0, ErrAborted
	default:
		return 0, ErrAborted
	}
}

// Len returns the number of elements; quiescent states only.
func (q *Packed) Len() int { return int(q.ends.tail.Read() - q.ends.head.Read()) }

// Snapshot returns the contents oldest-first; quiescent states only.
func (q *Packed) Snapshot() []uint32 {
	h, t := q.ends.head.Read(), q.ends.tail.Read()
	out := make([]uint32, 0, t-h)
	for pos := h; pos < t; pos++ {
		v, _ := unpackSlot(q.slots.Read(q.slot(pos)))
		out = append(out, v)
	}
	return out
}

// Progress classifies the packed abortable queue.
func (q *Packed) Progress() core.Progress { return core.ObstructionFree }

var _ Weak[uint32] = (*Packed)(nil)
