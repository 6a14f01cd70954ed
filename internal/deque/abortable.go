package deque

import (
	"errors"

	"repro/internal/core"
	"repro/internal/memory"
)

// Sentinel results of the total deque operations.
var (
	// ErrFull is returned by a push whose side of the array has no
	// sentinel cells left (the window has slid against that edge).
	ErrFull = errors.New("deque: full on this side")
	// ErrEmpty is returned by a pop on an empty deque.
	ErrEmpty = errors.New("deque: empty")
	// ErrAborted is the paper's ⊥: the weak attempt detected
	// interference and had no effect.
	ErrAborted = errors.New("deque: aborted by contention")
)

// Cell encoding: one 64-bit word per cell, [kind:2][value:32][ctr:30].
// The counter is HLM's version tag (§2.2's ABA defence): every CAS
// bumps it, so a cell word never repeats within 2^30 writes of the
// same cell.
const (
	kindLN   = uint64(0)
	kindRN   = uint64(1)
	kindData = uint64(2)

	ctrBits   = 30
	ctrMask   = 1<<ctrBits - 1
	valShift  = ctrBits
	kindShift = ctrBits + 32
)

func pack(kind uint64, value uint32, ctr uint64) uint64 {
	return kind<<kindShift | uint64(value)<<valShift | (ctr & ctrMask)
}

func unpack(w uint64) (kind uint64, value uint32, ctr uint64) {
	return w >> kindShift, uint32(w >> valShift), w & ctrMask
}

// bumped returns the same cell content with the version counter
// incremented — HLM's "logically idle" first CAS.
func bumped(w uint64) uint64 {
	kind, value, ctr := unpack(w)
	return pack(kind, value, ctr+1)
}

// Abortable is the HLM array deque as an abortable object (values are
// uint32; the cells are packed single words as in the original).
// Cells 0 and max+1 are permanent LN/RN sentinels.
type Abortable struct {
	cells *memory.Words
	max   int
	hints *hints
}

// hints holds the non-authoritative guesses of the two region
// boundaries: right is the left end of the RN region, written after
// successful right-side operations, and left mirrors it for the left
// side. They only shorten the oracle scan; correctness never depends
// on them. The two sides write different hints, so each sits at least
// 64 B (word start to word start) from the other and from the words
// outside the allocation (DESIGN §2).
type hints struct {
	_     [64]byte
	left  memory.Word
	_     [56]byte
	right memory.Word
	_     [56]byte
}

// NewAbortable returns a deque of capacity k >= 1 with the window
// split in the middle (matching spec.NewDeque).
func NewAbortable(k int) *Abortable { return NewAbortableObserved(k, nil) }

// NewAbortableObserved returns an instrumented deque (nil obs disables
// instrumentation).
func NewAbortableObserved(k int, obs memory.Observer) *Abortable {
	if k < 1 {
		panic("deque: capacity must be >= 1")
	}
	numLN := k/2 + 1 // cells 0..numLN-1 start as LN
	d := &Abortable{max: k, hints: new(hints)}
	// Written before the observer is set: initialization is not counted.
	d.hints.right.Write(uint64(numLN))
	d.hints.left.Write(uint64(numLN - 1))
	d.hints.right.Observe(obs)
	d.hints.left.Observe(obs)
	d.cells = memory.NewWordsInit(k+2, func(i int) uint64 {
		if i < numLN {
			return pack(kindLN, 0, 0)
		}
		return pack(kindRN, 0, 0)
	}, obs)
	return d
}

// Capacity returns the size of the data region.
func (d *Abortable) Capacity() int { return d.max }

// kindAt reads cell i and returns its word and kind.
func (d *Abortable) kindAt(i int) (w uint64, kind uint64) {
	w = d.cells.Read(i)
	kind, _, _ = unpack(w)
	return w, kind
}

// findRightBoundary returns an index k such that A[k] was RN and
// A[k-1] was not RN at the respective reads, starting from the hint.
// ok=false means the scan raced interference and the caller should
// abort.
func (d *Abortable) findRightBoundary() (k int, ok bool) {
	k = int(d.hints.right.Read())
	if k < 1 {
		k = 1
	}
	if k > d.max+1 {
		k = d.max + 1
	}
	for steps := 0; steps <= 2*(d.max+2); steps++ {
		_, kind := d.kindAt(k)
		if kind == kindRN {
			if k == 1 {
				return 1, true // A[0] is a permanent LN
			}
			_, prev := d.kindAt(k - 1)
			if prev != kindRN {
				return k, true
			}
			k-- // RN region extends further left
		} else {
			if k == d.max+1 {
				return 0, false // sentinel must be RN; racing writes
			}
			k++
		}
	}
	return 0, false
}

// findLeftBoundary returns j such that A[j] was LN and A[j+1] was not
// LN at the respective reads.
func (d *Abortable) findLeftBoundary() (j int, ok bool) {
	j = int(d.hints.left.Read())
	if j < 0 {
		j = 0
	}
	if j > d.max {
		j = d.max
	}
	for steps := 0; steps <= 2*(d.max+2); steps++ {
		_, kind := d.kindAt(j)
		if kind == kindLN {
			if j == d.max {
				return d.max, true // A[max+1] is a permanent RN
			}
			_, next := d.kindAt(j + 1)
			if next != kindLN {
				return j, true
			}
			j++
		} else {
			if j == 0 {
				return 0, false
			}
			j--
		}
	}
	return 0, false
}

// TryPushRight makes one attempt to append v on the right: one
// iteration of HLM's rightpush loop. nil on success, ErrFull if the
// right sentinel supply is exhausted (the LN⁺data*RN⁺ invariant makes
// the single A[max] read a linearizable full test), ErrAborted on
// interference. Solo attempts never abort.
func (d *Abortable) TryPushRight(v uint32) error {
	k, ok := d.findRightBoundary()
	if !ok {
		return ErrAborted
	}
	if k == d.max+1 {
		if _, kind := d.kindAt(d.max); kind != kindRN {
			return ErrFull
		}
		return ErrAborted // boundary moved since the scan
	}
	prev := d.cells.Read(k - 1)
	if kind, _, _ := unpack(prev); kind == kindRN {
		return ErrAborted
	}
	cur := d.cells.Read(k)
	if kind, _, _ := unpack(cur); kind != kindRN {
		return ErrAborted
	}
	// HLM's two-step commit: bump the left neighbour (no logical
	// change) to pin it, then install the value. Aborting between the
	// CASes is harmless.
	if !d.cells.CAS(k-1, prev, bumped(prev)) {
		return ErrAborted
	}
	_, _, ctr := unpack(cur)
	if !d.cells.CAS(k, cur, pack(kindData, v, ctr+1)) {
		return ErrAborted
	}
	d.hints.right.Write(uint64(k + 1))
	return nil
}

// TryPopRight makes one attempt to remove the rightmost value.
func (d *Abortable) TryPopRight() (uint32, error) {
	k, ok := d.findRightBoundary()
	if !ok {
		return 0, ErrAborted
	}
	next := d.cells.Read(k)
	if kind, _, _ := unpack(next); kind != kindRN {
		return 0, ErrAborted
	}
	cur := d.cells.Read(k - 1)
	kind, value, ctr := unpack(cur)
	switch kind {
	case kindRN:
		return 0, ErrAborted // stale scan
	case kindLN:
		// Candidate empty: prove the (LN, RN) pair held at one
		// instant by re-reading A[k].
		if d.cells.Read(k) == next {
			return 0, ErrEmpty
		}
		return 0, ErrAborted
	}
	// Two-step commit: pin A[k] (stays RN, counter bumped), then take
	// the value by writing RN over it.
	if !d.cells.CAS(k, next, bumped(next)) {
		return 0, ErrAborted
	}
	if !d.cells.CAS(k-1, cur, pack(kindRN, 0, ctr+1)) {
		return 0, ErrAborted // interference; no logical change happened
	}
	d.hints.right.Write(uint64(k - 1))
	return value, nil
}

// TryPushLeft makes one attempt to prepend v on the left (mirror of
// TryPushRight).
func (d *Abortable) TryPushLeft(v uint32) error {
	j, ok := d.findLeftBoundary()
	if !ok {
		return ErrAborted
	}
	if j == 0 {
		if _, kind := d.kindAt(1); kind != kindLN {
			return ErrFull
		}
		return ErrAborted
	}
	next := d.cells.Read(j + 1)
	if kind, _, _ := unpack(next); kind == kindLN {
		return ErrAborted
	}
	cur := d.cells.Read(j)
	if kind, _, _ := unpack(cur); kind != kindLN {
		return ErrAborted
	}
	if !d.cells.CAS(j+1, next, bumped(next)) {
		return ErrAborted
	}
	_, _, ctr := unpack(cur)
	if !d.cells.CAS(j, cur, pack(kindData, v, ctr+1)) {
		return ErrAborted
	}
	d.hints.left.Write(uint64(j - 1))
	return nil
}

// TryPopLeft makes one attempt to remove the leftmost value (mirror of
// TryPopRight).
func (d *Abortable) TryPopLeft() (uint32, error) {
	j, ok := d.findLeftBoundary()
	if !ok {
		return 0, ErrAborted
	}
	prev := d.cells.Read(j)
	if kind, _, _ := unpack(prev); kind != kindLN {
		return 0, ErrAborted
	}
	cur := d.cells.Read(j + 1)
	kind, value, ctr := unpack(cur)
	switch kind {
	case kindLN:
		return 0, ErrAborted
	case kindRN:
		if d.cells.Read(j) == prev {
			return 0, ErrEmpty
		}
		return 0, ErrAborted
	}
	if !d.cells.CAS(j, prev, bumped(prev)) {
		return 0, ErrAborted
	}
	if !d.cells.CAS(j+1, cur, pack(kindLN, 0, ctr+1)) {
		return 0, ErrAborted
	}
	d.hints.left.Write(uint64(j + 1))
	return value, nil
}

// Len returns the number of elements; quiescent states only.
func (d *Abortable) Len() int {
	n := 0
	for i := 1; i <= d.max; i++ {
		if _, kind := d.kindAt(i); kind == kindData {
			n++
		}
	}
	return n
}

// Snapshot returns the contents left to right; quiescent states only.
func (d *Abortable) Snapshot() []uint32 {
	var out []uint32
	for i := 1; i <= d.max; i++ {
		w, kind := d.kindAt(i)
		if kind == kindData {
			_, v, _ := unpack(w)
			out = append(out, v)
		}
	}
	return out
}

// Progress classifies the weak deque (abortable, hence on the
// obstruction-free rung — fittingly, since HLM's original is the
// algorithm obstruction-freedom was defined for).
func (d *Abortable) Progress() core.Progress { return core.ObstructionFree }
