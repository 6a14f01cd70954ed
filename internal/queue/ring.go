package queue

import "repro/internal/memory"

// ring is the index layer of the two ring queues, Abortable and
// Packed: the HEAD and TAIL registers and the map from a ticket to its
// slot. It places registers by writer (DESIGN §2) and changes no
// access. Dequeuers write HEAD and enqueuers write TAIL, so the two sit
// in one padded allocation, each at least 64 B from the other and from
// the allocation's edges, and an enqueue's TAIL CAS does not invalidate
// the line a dequeue reads HEAD from.
//
// Ticket pos uses slot pos mod k, so consecutive tickets' slots share
// lines. That is deliberate: a consumer trailing a producer then takes
// one line transfer per line of slots, not one per ticket (striding
// the tickets across lines measured 2.7× slower on a one-producer,
// one-consumer ring; EXPERIMENTS E19).
type ring struct {
	ends *ringEnds
	k    uint64
}

// ringEnds keeps HEAD and TAIL at least 64 B (word start to word
// start) from each other and from the words outside the allocation.
type ringEnds struct {
	_    [64]byte
	head memory.Word // written by dequeuers
	_    [56]byte
	tail memory.Word // written by enqueuers
	_    [56]byte
}

// newRing returns the index layer of a ring of capacity k >= 1 whose
// HEAD and TAIL report to obs (nil disables instrumentation).
func newRing(k int, obs memory.Observer) ring {
	if k < 1 {
		panic("queue: capacity must be >= 1")
	}
	r := ring{ends: new(ringEnds), k: uint64(k)}
	r.ends.head.Observe(obs)
	r.ends.tail.Observe(obs)
	return r
}

// slot returns the slot that ticket pos uses.
func (r *ring) slot(pos uint64) int { return int(pos % r.k) }

// newSlots returns the ring's k slot registers, each holding
// init(ticket) for the ticket it serves on lap 0.
func (r *ring) newSlots(init func(ticket uint64) uint64, obs memory.Observer) *memory.Words {
	return memory.NewWordsInit(int(r.k), func(j int) uint64 { return init(uint64(j)) }, obs)
}
