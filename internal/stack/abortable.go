package stack

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// topRec is the content of the TOP register: the index of the top
// entry, the value stored there, and the sequence number destined for
// STACK[index] (§3, "Shared data structures"). The same record type
// serves the STACK[x] registers, whose content 〈value, seq〉 is a TOP
// record's last two fields: the help step installs the TOP record it
// read into STACK[t.index] as is, so a cell's index field is either the
// cell's own index or (for the initial records) meaningless.
type topRec[T any] struct {
	index int
	value T
	seq   uint64
}

// Abortable is the paper's Figure 1: an abortable bounded stack over
// atomic registers and Compare&Swap. The implementation is lazy — a
// successful operation installs its result in TOP and leaves the
// corresponding STACK write to the help step of the next operation —
// so every operation first helps terminate its predecessor.
//
// The boxed backend stores each register's multi-field content as an
// immutable record behind memory.Ref; see Packed for the bit-packed
// single-word backend.
type Abortable[T any] struct {
	top   *memory.Ref[topRec[T]]
	cells *memory.Refs[topRec[T]]
	k     int
}

// NewAbortable returns an abortable stack of capacity k >= 1.
func NewAbortable[T any](k int) *Abortable[T] {
	return NewAbortableObserved[T](k, nil)
}

// NewAbortableObserved returns an abortable stack whose every shared
// access is reported to obs first (nil disables instrumentation). The
// E1 experiment uses this to count the accesses of Theorem 1.
func NewAbortableObserved[T any](k int, obs memory.Observer) *Abortable[T] {
	if k < 1 {
		panic("stack: capacity must be >= 1")
	}
	if k > memory.MaxIndex {
		// Keep both backends interchangeable in the experiments.
		panic("stack: capacity exceeds memory.MaxIndex")
	}
	var zero T
	s := &Abortable[T]{k: k}
	// TOP is initialized to 〈0, ⊥, 0〉; STACK[0] is the dummy entry
	// 〈⊥, -1〉 (so that helping the initial TOP is a harmless write of
	// 〈⊥, 0〉); STACK[1..k] start at 〈⊥, 0〉, one record they all share.
	s.top = memory.NewRefObserved(&topRec[T]{index: 0, value: zero, seq: 0}, obs)
	dummy := &topRec[T]{value: zero, seq: ^uint64(0)} // -1
	empty := &topRec[T]{value: zero, seq: 0}
	s.cells = memory.NewRefs(k+1, func(i int) *topRec[T] {
		if i == 0 {
			return dummy
		}
		return empty
	}, obs)
	return s
}

// Capacity returns k, the number of storable elements.
func (s *Abortable[T]) Capacity() int { return s.k }

// help terminates the previous non-aborted operation (lines 15-16): it
// completes the pending write of 〈t.value, t.seq〉 into STACK[t.index]
// by installing the immutable TOP record t itself, so helping allocates
// nothing.
//
// The paper's C&S compares 〈stacktop, seqnb-1〉 against the cell, i.e.
// it succeeds only if the cell still carries the predecessor tag. With
// boxed records the pointer CAS alone would be *too* strong a success
// condition in one direction (it only succeeds if the cell is
// untouched) but too weak in the other — a stale helper holding an old
// TOP record could overwrite a newer cell that happens not to have
// changed since its read. The explicit sequence check reproduces the
// value-compare semantics exactly: help writes only the pending
// successor of what it read.
//
// The pointer CAS stays ABA-free because no register ever holds the
// same pointer twice: TOP only ever receives freshly allocated records;
// a TOP record enters at most one cell (its own index) at most once,
// since after the install c.seq+1 == t.seq is false; and the initial
// cell records never re-enter a register once replaced.
func (s *Abortable[T]) help(t *topRec[T]) {
	c := s.cells.Read(t.index) // line 15
	if c.seq+1 == t.seq {
		s.cells.CAS(t.index, c, t) // line 16
	}
}

// TryPush is the paper's weak_push(v): one attempt to push v. It
// returns nil on success, ErrFull if the stack is full, and ErrAborted
// if a concurrent operation interfered (in which case the push had no
// effect). A solo TryPush never returns ErrAborted.
func (s *Abortable[T]) TryPush(v T) error {
	t := s.top.Read() // line 01
	s.help(t)         // line 02
	if t.index == s.k {
		return ErrFull // line 03
	}
	next := s.cells.Read(t.index + 1) // line 04
	newTop := &topRec[T]{index: t.index + 1, value: v, seq: next.seq + 1}
	if s.top.CAS(t, newTop) { // line 06
		return nil
	}
	return ErrAborted
}

// TryPop is the paper's weak_pop(): one attempt to pop. It returns the
// popped value on success, ErrEmpty if the stack is empty, and
// ErrAborted if a concurrent operation interfered. A solo TryPop never
// returns ErrAborted.
func (s *Abortable[T]) TryPop() (T, error) {
	var zero T
	t := s.top.Read() // line 08
	s.help(t)         // line 09
	if t.index == 0 {
		return zero, ErrEmpty // line 10
	}
	below := s.cells.Read(t.index - 1) // line 11
	newTop := &topRec[T]{index: t.index - 1, value: below.value, seq: below.seq + 1}
	if s.top.CAS(t, newTop) { // line 13
		return t.value, nil
	}
	return zero, ErrAborted
}

// Len returns the number of elements currently on the stack. It is
// meaningful only in quiescent states (no concurrent operations).
func (s *Abortable[T]) Len() int { return s.top.Read().index }

// Snapshot returns the stack contents bottom-first. It is meaningful
// only in quiescent states: it reads TOP for the (lazily written) top
// element and the STACK array for the rest.
func (s *Abortable[T]) Snapshot() []T {
	t := s.top.Read()
	out := make([]T, 0, t.index)
	for x := 1; x < t.index; x++ {
		out = append(out, s.cells.Read(x).value)
	}
	if t.index > 0 {
		out = append(out, t.value)
	}
	return out
}

// Progress classifies the abortable stack. Abortability is strictly
// stronger than obstruction-freedom (§1.2) — every attempt terminates,
// solo attempts succeed — but in the paper's three-level hierarchy the
// object occupies the obstruction-free rung.
func (s *Abortable[T]) Progress() core.Progress { return core.ObstructionFree }
