// Package clean holds the blessed tagged-register idioms: build with
// NewTaggedRef (or as a zero value in place), advance by CAS, share by
// pointer. The pass must stay silent on all of it.
package clean

import "repro/internal/memory"

type slot struct {
	reg memory.TaggedRef[uint64]
}

func advance(s *slot, h memory.Handle) bool {
	old := s.reg.Read()
	return s.reg.CAS(old, old.Next(h))
}

func borrow(s *slot) *memory.TaggedRef[uint64] {
	return &s.reg
}

func fresh(pool *memory.Pool[uint64]) *memory.TaggedRef[uint64] {
	return memory.NewTaggedRef(pool, memory.PackTagged(memory.NilHandle, 0))
}

func words(s *slot) (memory.TaggedVal, memory.TaggedVal) {
	v := s.reg.Read()
	return v, v.Next(memory.NilHandle)
}
