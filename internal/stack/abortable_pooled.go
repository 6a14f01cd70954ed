package stack

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memory"
)

// pTopRec is the pooled content of the TOP register; pCellRec of one
// STACK[x] register. Fields are atomics: a stale reader may overlap a
// recycler rewriting the record (the snapshot is then discarded by the
// validation re-read, but the accesses must be race-free).
type pTopRec struct {
	index atomic.Uint64
	value atomic.Uint64
	seq   atomic.Uint64
}

type pCellRec struct {
	value atomic.Uint64
	seq   atomic.Uint64
}

// topSnap / cellSnap are validated local copies of a record — the
// pooled equivalent of the boxed backend's immutable *topRec records.
type topSnap struct {
	index int
	value uint64
	seq   uint64
}

type cellSnap struct {
	value uint64
	seq   uint64
}

// AbortablePooled is the paper's Figure 1 stack over pooled, tagged
// registers: the third backend next to boxed (Abortable) and packed
// (Packed). Each register holds a 〈handle, seqnb〉 word; a successful
// CAS retires the replaced record to the pool, and the next operation
// recycles it. Because a recycled record's fields are rewritten while
// stale readers may still hold its handle, every dereference goes
// through a validated snapshot: read the register word, copy the
// record's fields, re-read the word — if it is unchanged the record
// was not retired in between (retirement requires a successful CAS,
// which advances the tag), so the copy equals what the boxed backend's
// immutable record would have contained. The snapshot costs one extra
// shared read per register read; in exchange the hot path allocates
// nothing (experiment E17).
//
// Values are uint64 (the record fields must be atomics; compare the
// packed backend's uint32 restriction). Operations take the calling
// pid for the pool's per-pid free lists.
type AbortablePooled struct {
	top   *memory.TaggedRef[pTopRec]
	cells *memory.TaggedRefs[pCellRec]
	tpool *memory.Pool[pTopRec]
	cpool *memory.Pool[pCellRec]
	k     int
}

// NewAbortablePooled returns a pooled abortable stack of capacity
// k >= 1 for procs processes (pids in [0, procs)).
func NewAbortablePooled(k, procs int) *AbortablePooled {
	return NewAbortablePooledObserved(k, procs, nil)
}

// NewAbortablePooledObserved returns a pooled abortable stack whose
// every register access (including snapshot validation re-reads) is
// reported to obs first (nil disables instrumentation).
func NewAbortablePooledObserved(k, procs int, obs memory.Observer) *AbortablePooled {
	if k < 1 {
		panic("stack: capacity must be >= 1")
	}
	s := &AbortablePooled{
		tpool: memory.NewPool[pTopRec](procs, nil),
		cpool: memory.NewPool[pCellRec](procs, nil),
		k:     k,
	}
	// TOP = 〈0, ⊥, 0〉; STACK[0] is the dummy 〈⊥, -1〉; STACK[1..k] are
	// 〈⊥, 0〉 — the same initial state as the boxed backend.
	th := s.tpool.Get(0)
	s.top = memory.NewTaggedRefObserved(s.tpool, memory.PackTagged(th, 0), obs)
	s.cells = memory.NewTaggedRefs(s.cpool, k+1, func(i int) memory.TaggedVal {
		ch := s.cpool.Get(0)
		if i == 0 {
			s.cpool.At(ch).seq.Store(^uint64(0)) // -1
		}
		return memory.PackTagged(ch, 0)
	}, obs)
	return s
}

// Capacity returns k, the number of storable elements.
func (s *AbortablePooled) Capacity() int { return s.k }

// loadTop returns the TOP word and a validated snapshot of its record.
func (s *AbortablePooled) loadTop() (memory.TaggedVal, topSnap) {
	for {
		w := s.top.Read()
		r := s.top.Deref(w)
		t := topSnap{index: int(r.index.Load()), value: r.value.Load(), seq: r.seq.Load()}
		if s.top.Read() == w {
			return w, t
		}
	}
}

// loadCell returns cell x's word and a validated snapshot.
func (s *AbortablePooled) loadCell(x int) (memory.TaggedVal, cellSnap) {
	reg := s.cells.At(x)
	for {
		w := reg.Read()
		r := reg.Deref(w)
		c := cellSnap{value: r.value.Load(), seq: r.seq.Load()}
		if reg.Read() == w {
			return w, c
		}
	}
}

// help terminates the previous non-aborted operation (Figure 1 lines
// 15-16) exactly as the boxed backend's help does: the pending write
// of 〈t.value, t.seq〉 lands in STACK[t.index] only if the cell still
// carries the predecessor tag. The cell's tagged CAS plays the role of
// the boxed pointer CAS; on success the replaced record is retired, on
// failure the never-published one is recycled immediately.
func (s *AbortablePooled) help(pid int, t topSnap) {
	cw, c := s.loadCell(t.index)
	if c.seq+1 != t.seq {
		return
	}
	nh := s.cpool.Get(pid)
	n := s.cpool.At(nh)
	n.value.Store(t.value)
	n.seq.Store(t.seq)
	if s.cells.At(t.index).CAS(cw, cw.Next(nh)) {
		s.cpool.Put(pid, cw.Handle())
	} else {
		s.cpool.Put(pid, nh)
	}
}

// TryPush is the paper's weak_push(v) by pid: one attempt that returns
// nil, ErrFull, or ErrAborted (no effect). A solo TryPush never
// aborts.
func (s *AbortablePooled) TryPush(pid int, v uint64) error {
	w, t := s.loadTop() // line 01
	s.help(pid, t)      // line 02
	if t.index == s.k {
		return ErrFull // line 03
	}
	_, next := s.loadCell(t.index + 1) // line 04
	nh := s.tpool.Get(pid)
	n := s.tpool.At(nh)
	n.index.Store(uint64(t.index + 1))
	n.value.Store(v)
	n.seq.Store(next.seq + 1)
	if s.top.CAS(w, w.Next(nh)) { // line 06
		s.tpool.Put(pid, w.Handle())
		return nil
	}
	s.tpool.Put(pid, nh)
	return ErrAborted
}

// TryPop is the paper's weak_pop() by pid: one attempt that returns
// the value, ErrEmpty, or ErrAborted (no effect). A solo TryPop never
// aborts.
func (s *AbortablePooled) TryPop(pid int) (uint64, error) {
	w, t := s.loadTop() // line 08
	s.help(pid, t)      // line 09
	if t.index == 0 {
		return 0, ErrEmpty // line 10
	}
	_, below := s.loadCell(t.index - 1) // line 11
	nh := s.tpool.Get(pid)
	n := s.tpool.At(nh)
	n.index.Store(uint64(t.index - 1))
	n.value.Store(below.value)
	n.seq.Store(below.seq + 1)
	if s.top.CAS(w, w.Next(nh)) { // line 13
		s.tpool.Put(pid, w.Handle())
		return t.value, nil
	}
	s.tpool.Put(pid, nh)
	return 0, ErrAborted
}

// Len returns the number of elements; quiescent states only.
func (s *AbortablePooled) Len() int {
	_, t := s.loadTop()
	return t.index
}

// Snapshot returns the stack contents bottom-first; quiescent states
// only.
func (s *AbortablePooled) Snapshot() []uint64 {
	_, t := s.loadTop()
	out := make([]uint64, 0, t.index)
	for x := 1; x < t.index; x++ {
		_, c := s.loadCell(x)
		out = append(out, c.value)
	}
	if t.index > 0 {
		out = append(out, t.value)
	}
	return out
}

// PoolStats exposes the record pools' recycling counters (TOP records
// and cell records share the report).
func (s *AbortablePooled) PoolStats() memory.PoolStats {
	ts, cs := s.tpool.Stats(), s.cpool.Stats()
	return memory.PoolStats{
		Allocs:  ts.Allocs + cs.Allocs,
		Reuses:  ts.Reuses + cs.Reuses,
		Spills:  ts.Spills + cs.Spills,
		Refills: ts.Refills + cs.Refills,
		Drops:   ts.Drops + cs.Drops,
	}
}

// Progress classifies the pooled abortable stack (see
// Abortable.Progress).
func (s *AbortablePooled) Progress() core.Progress { return core.ObstructionFree }
