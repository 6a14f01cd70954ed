package sched

import (
	"fmt"
	"slices"

	"repro/internal/memory"
	"repro/internal/set"
)

// ABAReplay is one handcrafted schedule of §2.2's ABA window on one
// backend: Replay(Build, Schedule, nil) drives it deterministically.
type ABAReplay struct {
	// Name is the backend's name in reports.
	Name     string
	Build    Builder
	Schedule []int
	// Recycles marks the pooled backends, whose schedule forces a
	// retired node back to the register before the stale CAS fires.
	Recycles bool
	// Corrupts marks the untagged stack: its stale CAS succeeds, so
	// the replay must fail its check.
	Corrupts bool
}

// abaPlans is §2.2's race on a stack [a b] = [10 20]: process 0 pops,
// process 1 pops b, pops a, then pushes x = 30 and y = 40.
var abaPlans = [][]Op{
	{{opPop, 0}},
	{{opPop, 0}, {opPop, 0}, {opPush, 30}, {opPush, 40}},
}

// minReuses is a post-check that the schedule really recycled at
// least n pooled nodes.
func minReuses(n uint64) func(any) error {
	return func(inst any) error {
		st := inst.(interface{ PoolStats() memory.PoolStats }).PoolStats()
		if st.Reuses < n {
			return fmt.Errorf("schedule recycled %d nodes, want >= %d (no reuse pressure)", st.Reuses, n)
		}
		return nil
	}
}

// snapshotIs is a post-check that the object's quiescent snapshot is
// exactly want, ascending.
func snapshotIs(inst any, want ...uint64) error {
	if got := inst.(interface{ Snapshot() []uint64 }).Snapshot(); !slices.Equal(got, want) {
		return fmt.Errorf("final set %v, want %v", got, want)
	}
	return nil
}

// ABAReplays returns the pinned ABA schedules (experiment E8's
// deterministic half and cmd/modelcheck -mode aba).
//
// naive, boxed, packed: process 0 starts a pop of b from [a b] and is
// preempted between its value read and its index CAS, while process 1
// pops b, pops a, then pushes x and y. On the untagged stack p0's
// stale CAS then succeeds: it returns the already-popped b and the
// freshly pushed y is lost. On the tagged backends the stale CAS fails
// instead, so their checks pass. The access counts are
// implementation-exact (every replay's trace must match its schedule):
//
//	naive:  p0 pop prefix = 2 (read TOP, read cell);
//	        p1 = 4 ops × 3 accesses = 12.
//	packed: p0 pop prefix = 4 (read TOP, help read, help CAS,
//	        read below); p1 = 4 ops × 5 accesses = 20 (the packed
//	        help CAS is unconditional, as in the paper).
//	boxed:  p0 prefix = 4 as above, but p1's first pop skips its
//	        help CAS (p0 already completed that lazy write), so
//	        p1 = 4 + 5 + 5 + 5 = 19.
//
// pooled-treiber: the same race on the Treiber stack over recycled
// pooled nodes. The per-pid free list is LIFO, so 30 reuses a's node
// and 40 reuses b's, and b's handle is the head again when p0 resumes.
// Without the tag p0's stale CAS would succeed on the recycled handle
// (returning the long-gone b and unlinking 40); the tag, advanced by
// p1's four head CASes, makes it fail, so the pop aborts and the
// history stays linearizable. Every Treiber attempt performs exactly 2
// observed accesses (head read, head CAS; node derefs and pool traffic
// are arena-private): p0's prefix is its head read, p1 runs 4 ops (8
// accesses), and p0's final grant is the stale CAS. The check also
// asserts that recycling happened (>= 2 reuses).
//
// pooled-ms-queue: process 0 starts a dequeue of [10] (head = the
// dummy d) and is preempted before its head CAS, while process 1
// dequeues 10 (retiring d), enqueues 30 (recycling d as the new node)
// and dequeues 30, moving head through other nodes and back to d's
// handle. p0's stale CAS then compares equal on the handle, the
// textbook ABA, and only the tag (advanced by two head CASes) makes it
// fail; p0 retries and correctly reports empty. Observed accesses are
// head/tail register reads and CASes (node next-words and pool traffic
// are arena-private): a dequeue attempt gates head read, tail read,
// head re-read (consistency), head CAS, and the empty path stops after
// the re-read; an enqueue gates tail read, tail re-read, tail swing
// CAS. So p0 prefixes 3 gates, p1 runs deq+enq+deq = 4+3+4 = 11, and
// p0 finishes with its failed CAS plus a 3-gate empty retry.
//
// harris-set: process 0 walks Add(25) over the list [10 20] down to
// its insertion window (its pred register is node 20's next word
// 〈nil, t〉) and is preempted after preparing its new node, one step
// before the link CAS. Process 1 then removes 20 (retiring its node to
// p1's free list) and adds 30, which recycles 20's node at the same
// handle, relinked after 10. When p0 resumes, its stale CAS targets
// that recycled node's next register with the old 〈nil, t〉 word; the
// register again holds a nil successor, so without the tag the CAS
// would succeed, appending 25 after the node that now carries 30:
// sorted order breaks and 25 is unreachable by later traversals. The
// tag (advanced by the mark and the reuse) makes it fail; p0 restarts
// its walk and inserts 25 between 10 and 30. Observed accesses are the
// head register and every node next-register Read/Write/CAS (key loads
// and pool traffic are arena-private): a find step costs 2 gates per
// node (next read + pred validation re-read) after 1 gate for the head
// read; preparing a fresh node costs 2 (its next read + write). So
// p0's prefix is 1+2+2+2 = 7 gates; p1's Remove(20) is 1+2+2 (find) +
// 1 (mark CAS) + 1 (unlink CAS) = 7 and its Add(30) is 1+2 (find stops
// after node 10) + 2 (prep) + 1 (link CAS) = 6; p0 finishes with its
// failed CAS (1), a fresh find (1+2+2), a re-prep of its recycled own
// node (2) and the winning CAS (1), 9 gates. The check asserts
// recycling happened and the final set is {10 25 30}.
//
// hash-set-split: the recycled-sentinel window on the split-ordered
// hash set's bucket-initialization path. The set starts as {4, 6}
// (both bucket 0 of the 2-bucket initial table): sentinel₀ → 4 → 6 in
// split order, bucket 1 uninitialized. Process 0 runs Add(1): key 1 is
// bucket 1, so it starts the split, walks to sentinel 1's window (node
// 6's next register, holding 〈nil, t〉), prepares its own would-be
// sentinel node, and is preempted one step before the link CAS.
// Process 1 then runs Remove(6), which marks and unlinks node 6 and
// retires its handle to p1's free list, and Contains(5): key 5 is also
// bucket 1, so p1 re-runs the split, and its pool Get hands back node
// 6's just-retired handle. The recycled handle becomes bucket 1's
// published sentinel, linked in node 6's old position, its next
// register again holding a nil successor, 〈nil, t+2〉. When p0 resumes,
// its stale sentinel-link CAS targets that register with the old
// 〈nil, t〉 word. The handle parts are equal (nil, the very §2.2
// shape): without the sequence tag the CAS would succeed and chain a
// duplicate bucket-1 sentinel after the real one, corrupting the
// bucket skeleton. The tag, advanced by node 6's deletion mark and by
// the recycled node's re-preparation, makes it fail; p0 re-finds the
// published sentinel, adopts it, loses the (equally stale) bucket-word
// CAS, recycles its never-published node, and inserts key 1 through
// the adopted sentinel, reusing its own retired handle for the regular
// node. Observed accesses are bucket-shortcut words and node next
// registers (key loads, the table pointer, and pool traffic are
// unobserved): a find from a start register costs 1 gate for the
// start read plus 2 per node crossed (next read + predecessor
// re-read); preparing a fresh node costs 2 (its next read + write).
// p0's prefix is bucket-1 word read (1) + bucket-0 word read (1) +
// find over nodes 4, 6 (5) + prep (2) = 9, parking it at the link
// CAS. p1's Remove(6) is bucket-0 read (1) + find stopping at 6 (5) +
// mark (1) + unlink (1) = 8, and its Contains(5) is bucket-1 read (1)
// + bucket-0 read (1) + find over node 4 only (3) + prep of the
// recycled handle (2) + link CAS (1) + bucket-word CAS (1) + the
// membership find from the new sentinel (1) = 10, 18 in all. p0
// finishes with the failed stale CAS (1), the re-find that adopts the
// sentinel (5), the failed bucket-word CAS (1), the insert find from
// the sentinel (1), re-prep of its recycled node (2) and the winning
// link CAS (1), 11. The check asserts the final set is exactly {1, 4},
// both recycles happened, and no resize interfered.
func ABAReplays() []ABAReplay {
	aba := func(name string) Builder { return Program(Lookup(name, 4), []uint64{10, 20}, abaPlans, nil) }
	return []ABAReplay{
		{Name: "naive", Build: aba("stack/naive"), Schedule: segments(0, 2, 1, 12, 0, 1), Corrupts: true},
		{Name: "boxed", Build: aba("stack/boxed"), Schedule: segments(0, 4, 1, 19, 0, 1)},
		{Name: "packed", Build: aba("stack/packed"), Schedule: segments(0, 4, 1, 20, 0, 1)},
		{Name: "pooled-treiber", Recycles: true, Schedule: segments(0, 1, 1, 8, 0, 1),
			Build: Program(Lookup("stack/pooled-treiber", 0), []uint64{10, 20}, abaPlans, minReuses(2))},
		{Name: "pooled-ms-queue", Recycles: true, Schedule: segments(0, 3, 1, 11, 0, 4),
			Build: Program(Lookup("queue/pooled-ms", 0), []uint64{10},
				[][]Op{{{opPop, 0}}, {{opPop, 0}, {opPush, 30}, {opPop, 0}}}, minReuses(1))},
		{Name: "harris-set", Recycles: true, Schedule: segments(0, 7, 1, 13, 0, 9),
			Build: Program(Lookup("set/harris", 0), []uint64{10, 20},
				[][]Op{{{opAdd, 25}}, {{opRem, 20}, {opAdd, 30}}},
				func(inst any) error {
					if err := minReuses(1)(inst); err != nil {
						return err
					}
					return snapshotIs(inst, 10, 25, 30)
				})},
		{Name: "hash-set-split", Recycles: true, Schedule: segments(0, 9, 1, 18, 0, 11),
			Build: Program(Lookup("set/hash", 0), []uint64{4, 6},
				[][]Op{{{opAdd, 1}}, {{opRem, 6}, {opHas, 5}}},
				func(inst any) error {
					if err := minReuses(2)(inst); err != nil {
						return err
					}
					h := inst.(*set.Hash)
					if n := h.Resizes(); n != 0 {
						return fmt.Errorf("schedule resized %d times, want 0 (gate counts assume a fixed table)", n)
					}
					if got, want := h.Size(), 2; got != want {
						return fmt.Errorf("Size() = %d, want %d", got, want)
					}
					return snapshotIs(inst, 1, 4)
				})},
	}
}
