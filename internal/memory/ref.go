package memory

import "sync/atomic"

// Ref is an atomic register holding an immutable boxed record of type
// T. It is the boxed-backend realization of the paper's multi-field
// registers: instead of bit-packing 〈index, value, seqnb〉 into one
// machine word, the triple is allocated once and the register holds the
// pointer. CAS compares against the exact pointer returned by an
// earlier Read, so a successful CAS proves the register was untouched
// in between; the garbage collector guarantees a live pointer is never
// reused, which rules out pointer-level ABA (the logical sequence tags
// of §2.2 are still kept by the algorithms on top).
//
// Records stored in a Ref must be treated as immutable after
// publication: build a new record, never mutate one that was Read.
type Ref[T any] struct {
	p   atomic.Pointer[T]
	obs Observer
}

// NewRef returns an uninstrumented register holding init (which may be
// nil).
func NewRef[T any](init *T) *Ref[T] {
	r := &Ref[T]{}
	r.p.Store(init)
	return r
}

// NewRefObserved returns a register holding init whose every access is
// reported to obs first. A nil obs is equivalent to NewRef.
func NewRefObserved[T any](init *T, obs Observer) *Ref[T] {
	r := NewRef(init)
	r.obs = obs
	return r
}

// Observe sets the observer for subsequent accesses. It must be called
// before the register is shared between goroutines.
func (r *Ref[T]) Observe(obs Observer) { r.obs = obs }

// Read returns the current record. The caller must not mutate it.
func (r *Ref[T]) Read() *T {
	if r.obs != nil {
		r.obs.OnAccess(Read)
	}
	return r.p.Load()
}

// Write stores rec into the register.
func (r *Ref[T]) Write(rec *T) {
	if r.obs != nil {
		r.obs.OnAccess(Write)
	}
	r.p.Store(rec)
}

// CAS atomically replaces old with new and reports whether it did. old
// must be a pointer previously obtained from Read on this register.
func (r *Ref[T]) CAS(old, new *T) bool {
	if r.obs != nil {
		r.obs.OnAccess(CAS)
	}
	return r.p.CompareAndSwap(old, new)
}

// Refs is a fixed array of pointer registers sharing one observer, the
// boxed shape of the paper's STACK[0..k] array. Each register is one
// machine word: the observer is stored once for the whole array, not
// once per register as a slice of Ref would. Every indexed access is
// reported to the observer exactly as the corresponding Ref method
// would report it.
type Refs[T any] struct {
	regs []atomic.Pointer[T]
	obs  Observer
}

// NewRefs returns n registers, each initialized by calling init(i).
// A nil obs disables instrumentation. Initialization is not observed.
func NewRefs[T any](n int, init func(i int) *T, obs Observer) *Refs[T] {
	a := &Refs[T]{regs: make([]atomic.Pointer[T], n), obs: obs}
	for i := range a.regs {
		a.regs[i].Store(init(i))
	}
	return a
}

// Read returns the current record of register i. The caller must not
// mutate it.
func (a *Refs[T]) Read(i int) *T {
	if a.obs != nil {
		a.obs.OnAccess(Read)
	}
	return a.regs[i].Load()
}

// Write stores rec into register i.
func (a *Refs[T]) Write(i int, rec *T) {
	if a.obs != nil {
		a.obs.OnAccess(Write)
	}
	a.regs[i].Store(rec)
}

// CAS atomically replaces old with new in register i and reports
// whether it did. old must be a pointer previously obtained from Read.
func (a *Refs[T]) CAS(i int, old, new *T) bool {
	if a.obs != nil {
		a.obs.OnAccess(CAS)
	}
	return a.regs[i].CompareAndSwap(old, new)
}

// Len returns the number of registers.
func (a *Refs[T]) Len() int { return len(a.regs) }
