package stack

import (
	"repro/internal/core"
	"repro/internal/memory"
)

// Packed is Figure 1 on the bit-packed register backend: TOP and every
// STACK[x] are single 64-bit words holding 〈index, value, seqnb〉 /
// 〈value, sn〉 (see memory/pack.go for the layout and the wrap-around
// caveat). This matches the paper's machine model — one-word
// Compare&Swap, unconditional help CAS — and is allocation-free, at
// the price of uint32 values and capacity <= memory.MaxIndex.
type Packed struct {
	top   *memory.Word
	cells *memory.Words
	k     int
}

// NewPacked returns a packed abortable stack of capacity k in
// [1, memory.MaxIndex].
func NewPacked(k int) *Packed { return NewPackedObserved(k, nil) }

// NewPackedObserved returns a packed stack whose every shared access
// is reported to obs first (nil disables instrumentation).
func NewPackedObserved(k int, obs memory.Observer) *Packed {
	if k < 1 || k > memory.MaxIndex {
		panic("stack: packed capacity out of range")
	}
	s := &Packed{k: k}
	s.top = memory.NewWordObserved(memory.PackTop(0, 0, 0), obs)
	// STACK[0] is the dummy entry 〈⊥, -1〉; STACK[1..k] start at 〈⊥, 0〉.
	s.cells = memory.NewWordsInit(k+1, func(i int) uint64 {
		if i == 0 {
			return memory.PackCell(0, memory.PrevSeq(0))
		}
		return memory.PackCell(0, 0)
	}, obs)
	return s
}

// Capacity returns k, the number of storable elements.
func (s *Packed) Capacity() int { return s.k }

// help is lines 15-16 verbatim: read the cell's current value, then
// C&S(〈stacktop, seqnb-1〉, 〈value, seqnb〉). With packed words the CAS
// compares the full bit pattern, so no extra guard is needed — a
// mismatching sequence number simply fails the CAS, exactly as in the
// paper.
func (s *Packed) help(index int, value uint32, seq uint32) {
	stacktop, _ := memory.UnpackCell(s.cells.Read(index)) // line 15
	old := memory.PackCell(stacktop, memory.PrevSeq(seq))
	s.cells.CAS(index, old, memory.PackCell(value, seq)) // line 16
}

// TryPush is weak_push(v) on the packed backend; see Abortable.TryPush
// for the contract.
func (s *Packed) TryPush(v uint32) error {
	topw := s.top.Read() // line 01
	index, value, seq := memory.UnpackTop(topw)
	s.help(index, value, seq) // line 02
	if index == s.k {
		return ErrFull // line 03
	}
	_, snNext := memory.UnpackCell(s.cells.Read(index + 1))      // line 04
	newTop := memory.PackTop(index+1, v, memory.NextSeq(snNext)) // line 05
	if s.top.CAS(topw, newTop) {                                 // line 06
		return nil
	}
	return ErrAborted
}

// TryPop is weak_pop() on the packed backend; see Abortable.TryPop for
// the contract.
func (s *Packed) TryPop() (uint32, error) {
	topw := s.top.Read() // line 08
	index, value, seq := memory.UnpackTop(topw)
	s.help(index, value, seq) // line 09
	if index == 0 {
		return 0, ErrEmpty // line 10
	}
	bv, bs := memory.UnpackCell(s.cells.Read(index - 1))      // line 11
	newTop := memory.PackTop(index-1, bv, memory.NextSeq(bs)) // line 12
	if s.top.CAS(topw, newTop) {                              // line 13
		return value, nil
	}
	return 0, ErrAborted
}

// Len returns the number of elements; quiescent states only.
func (s *Packed) Len() int {
	index, _, _ := memory.UnpackTop(s.top.Read())
	return index
}

// Snapshot returns the contents bottom-first; quiescent states only.
func (s *Packed) Snapshot() []uint32 {
	index, value, _ := memory.UnpackTop(s.top.Read())
	out := make([]uint32, 0, index)
	for x := 1; x < index; x++ {
		v, _ := memory.UnpackCell(s.cells.Read(x))
		out = append(out, v)
	}
	if index > 0 {
		out = append(out, value)
	}
	return out
}

// Progress classifies the packed abortable stack (see
// Abortable.Progress).
func (s *Packed) Progress() core.Progress { return core.ObstructionFree }

// Compile-time checks that both backends implement the weak interface.
var (
	_ Weak[uint32] = (*Packed)(nil)
	_ Weak[int]    = (*Abortable[int])(nil)
)
