// Package flagged exercises every taggedword diagnostic.
package flagged

import "repro/internal/memory"

type slot struct {
	reg memory.TaggedRef[uint64]
}

func fork(s *slot) memory.TaggedRef[uint64] {
	cp := s.reg // want `assignment copies a TaggedRef register; share a pointer`
	return cp   // want `return copies a TaggedRef register; return a pointer`
}

func overwrite(p, q *memory.TaggedRef[uint64]) {
	*p = *q // want `overwrite of a TaggedRef register through a pointer` `assignment copies a TaggedRef register`
}

func consume(r memory.TaggedRef[uint64]) {}

func pass(s *slot) {
	consume(s.reg) // want `call passes a TaggedRef register by value; pass a pointer`
}

func ship(s *slot, ch chan memory.TaggedRef[uint64]) {
	ch <- s.reg // want `send copies a TaggedRef register; send a pointer`
}

func box(s *slot) slot {
	return slot{reg: s.reg} // want `composite literal copies a TaggedRef register; share a pointer`
}

var spare memory.TaggedRef[uint64]

func initCopy(s *slot) {
	var dup = s.reg // want `variable initialization copies a TaggedRef register; share a pointer`
	spare = dup     // want `assignment copies a TaggedRef register; share a pointer`
}
