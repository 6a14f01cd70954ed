package stack

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// Register layout. TOP packs the paper's 〈index, value, seqnb〉 and a
// STACK[x] cell its 〈value, sn〉, each into one word, where the value
// is a handle into the write-once value arena (0 is ⊥):
//
//	bit  0..31  seq     (wraps modulo 2^32, like memory.TaggedVal tags)
//	bit 32..51  handle  (20 bits)
//	bit 52..63  index   (12 bits; TOP only)
//
// The low 52 bits of a TOP word are therefore the cell word its help
// step installs.
const (
	seqBits     = 32
	handleBits  = 20
	handleShift = seqBits
	indexShift  = seqBits + handleBits
	cellMask    = 1<<indexShift - 1
	maxHandle   = 1<<handleBits - 1
)

func packCell(h memory.Handle, seq uint32) uint64 { return uint64(h)<<handleShift | uint64(seq) }

func packTop(index int, h memory.Handle, seq uint32) uint64 {
	return uint64(index)<<indexShift | packCell(h, seq)
}

func wordIndex(w uint64) int            { return int(w >> indexShift) }
func wordHandle(w uint64) memory.Handle { return memory.Handle(w >> handleShift & maxHandle) }
func wordSeq(w uint64) uint32           { return uint32(w) }

// Abortable is the paper's Figure 1: an abortable bounded stack over
// atomic registers and Compare&Swap. The implementation is lazy — a
// successful operation installs its result in TOP and leaves the
// corresponding STACK write to the help step of the next operation —
// so every operation first helps terminate its predecessor.
//
// TOP and STACK[x] are single words (see the layout above). Values of
// any T live in a memory.Pool arena, one slot per push, and the
// registers carry the slot's handle. Each slot has a single owner at a
// time: the pusher writes v into its freshly Got slot before the TOP
// CAS that publishes it (and clears and Puts it back if that CAS
// fails); help and line 11 copy handles and never read a value; only
// the pop whose TOP CAS wins reads the slot, then clears and Puts it.
// Handles are reused, but every register's sequence number strictly
// increases, so each CAS succeeds exactly when it would with a fresh
// value per push (DESIGN §3). The hot path allocates nothing.
//
// Operations take the calling pid, for the arena's per-pid free lists.
// The arena is not observed: E1 counts the register accesses only.
type Abortable[T any] struct {
	top   *memory.Word
	cells *memory.Words
	vals  *memory.Pool[T]
	k     int
}

// NewAbortable returns an abortable stack of capacity k >= 1 for n
// processes (pids in [0, n)).
func NewAbortable[T any](k, n int) *Abortable[T] {
	return NewAbortableObserved[T](k, n, nil)
}

// NewAbortableObserved returns an abortable stack whose every shared
// register access is reported to obs first (nil disables
// instrumentation). The E1 experiment uses this to count the accesses
// of Theorem 1.
func NewAbortableObserved[T any](k, n int, obs memory.Observer) *Abortable[T] {
	if k < 1 {
		panic("stack: capacity must be >= 1")
	}
	if k > memory.MaxIndex {
		// Keep both backends interchangeable in the experiments.
		panic("stack: capacity exceeds memory.MaxIndex")
	}
	// At most k stacked values plus one in-flight slot per pid are
	// outside the free lists at once.
	if memory.MaxArena(k+n, n) > maxHandle {
		panic("stack: capacity and process count overflow the handle field")
	}
	s := &Abortable[T]{vals: memory.NewPool[T](n, nil), k: k}
	// TOP is initialized to 〈0, ⊥, 0〉; STACK[0] is the dummy entry
	// 〈⊥, -1〉 (so that helping the initial TOP is a harmless write of
	// 〈⊥, 0〉); STACK[1..k] start at 〈⊥, 0〉.
	s.top = memory.NewWordObserved(packTop(0, memory.NilHandle, 0), obs)
	s.cells = memory.NewWordsInit(k+1, func(i int) uint64 {
		if i == 0 {
			return packCell(memory.NilHandle, ^uint32(0)) // -1
		}
		return packCell(memory.NilHandle, 0)
	}, obs)
	return s
}

// Capacity returns k, the number of storable elements.
func (s *Abortable[T]) Capacity() int { return s.k }

// help terminates the previous non-aborted operation (lines 15-16): it
// completes the pending write of 〈handle, seq〉 into STACK[index] by
// installing the cell half of the TOP word t.
//
// The paper's C&S compares 〈stacktop, seqnb-1〉 against the cell. Here
// the CAS compares the whole cell word read at line 15 and runs only
// when that word carries the predecessor tag, so a stale helper never
// overwrites a newer cell, and an up-to-date cell costs no CAS (the
// access counts of Theorem 1 and of the pinned schedules depend on
// this).
func (s *Abortable[T]) help(t uint64) {
	index := wordIndex(t)
	c := s.cells.Read(index) // line 15
	if wordSeq(c)+1 == wordSeq(t) {
		s.cells.CAS(index, c, t&cellMask) // line 16
	}
}

// TryPush is the paper's weak_push(v) by pid: one attempt that returns
// nil on success, ErrFull if the stack is full, and ErrAborted if a
// concurrent operation interfered (in which case the push had no
// effect). A solo TryPush never returns ErrAborted.
func (s *Abortable[T]) TryPush(pid int, v T) error {
	t := s.top.Read() // line 01
	s.help(t)         // line 02
	index := wordIndex(t)
	if index == s.k {
		return ErrFull // line 03
	}
	next := s.cells.Read(index + 1) // line 04
	h := s.vals.Get(pid)
	slot := s.vals.At(h)
	*slot = v
	if s.top.CAS(t, packTop(index+1, h, wordSeq(next)+1)) { // line 06
		return nil
	}
	var zero T
	*slot = zero
	s.vals.Put(pid, h)
	return ErrAborted
}

// TryPop is the paper's weak_pop() by pid: one attempt that returns the
// popped value on success, ErrEmpty if the stack is empty, and
// ErrAborted if a concurrent operation interfered. A solo TryPop never
// returns ErrAborted.
func (s *Abortable[T]) TryPop(pid int) (T, error) {
	var zero T
	t := s.top.Read() // line 08
	s.help(t)         // line 09
	index := wordIndex(t)
	if index == 0 {
		return zero, ErrEmpty // line 10
	}
	below := s.cells.Read(index - 1) // line 11
	newTop := packTop(index-1, wordHandle(below), wordSeq(below)+1)
	if !s.top.CAS(t, newTop) { // line 13
		return zero, ErrAborted
	}
	h := wordHandle(t)
	slot := s.vals.At(h)
	v := *slot
	*slot = zero
	s.vals.Put(pid, h)
	return v, nil
}

// Len returns the number of elements currently on the stack. It is
// meaningful only in quiescent states (no concurrent operations).
func (s *Abortable[T]) Len() int { return wordIndex(s.top.Read()) }

// Snapshot returns the stack contents bottom-first. It is meaningful
// only in quiescent states: it reads TOP for the (lazily written) top
// element and the STACK array for the rest.
func (s *Abortable[T]) Snapshot() []T {
	t := s.top.Read()
	index := wordIndex(t)
	out := make([]T, 0, index)
	for x := 1; x < index; x++ {
		out = append(out, *s.vals.At(wordHandle(s.cells.Read(x))))
	}
	if index > 0 {
		out = append(out, *s.vals.At(wordHandle(t)))
	}
	return out
}

// PoolStats exposes the value arena's recycling counters (quiescent
// states only).
func (s *Abortable[T]) PoolStats() memory.PoolStats { return s.vals.Stats() }

// PoolArenaSize returns the records the value arena has carved; it is
// safe under load.
func (s *Abortable[T]) PoolArenaSize() int { return s.vals.ArenaSize() }

// Progress classifies the abortable stack. Abortability is strictly
// stronger than obstruction-freedom (§1.2) — every attempt terminates,
// solo attempts succeed — but in the paper's three-level hierarchy the
// object occupies the obstruction-free rung.
func (s *Abortable[T]) Progress() core.Progress { return core.ObstructionFree }
