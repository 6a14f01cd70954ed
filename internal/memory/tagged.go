package memory

import "sync/atomic"

// Tagged registers: the pooled-backend realization of the paper's
// multi-field registers. Where the boxed family (ref.go) leans on the
// garbage collector to rule out pointer ABA and the packed family
// (pack.go) squeezes 〈index, value, seqnb〉 into one word, the tagged
// family stores records in a Pool arena and keeps the register itself
// a single word packing 〈handle, sequence tag〉. Nodes are recycled, so
// the same handle can legitimately reappear in a register — exactly
// the situation of §2.2 — and the tag, CASed together with the handle,
// is what makes the stale CAS fail. Here the sequence tags are
// load-bearing, as on the paper's target machines.
const (
	// TagBits is the width of the tagged register's sequence field.
	// Tags wrap modulo 2^32; as with the packed backend's SeqPeriod, a
	// recurrence within one register-read-to-CAS window of another
	// process is astronomically unlikely.
	TagBits = 32
	// TagMask extracts a sequence tag from a tagged word.
	TagMask = 1<<TagBits - 1
)

// Handle identifies a pooled record inside its Pool. The zero Handle
// is the nil reference.
type Handle uint32

// NilHandle is the null pooled reference.
const NilHandle Handle = 0

// TaggedVal is the packed content of a tagged register: a pool Handle
// in the high 32 bits and a sequence tag in the low 32 bits.
type TaggedVal uint64

// PackTagged packs a handle and a sequence tag into one register word.
func PackTagged(h Handle, tag uint32) TaggedVal {
	return TaggedVal(uint64(h)<<TagBits | uint64(tag))
}

// Handle returns the pooled-record handle of the word (mark excluded).
func (v TaggedVal) Handle() Handle { return Handle((v &^ TaggedMark) >> TagBits) }

// Tag returns the sequence tag of the word.
func (v TaggedVal) Tag() uint32 { return uint32(v & TagMask) }

// Next returns the word that installs h over v: same register, handle
// h, tag advanced by one, mark cleared. Every successful CAS on a
// tagged register installs a Next word (possibly re-marked via
// WithMark), which is what keeps tags strictly monotonic (modulo 2^32)
// and recycled handles distinguishable.
func (v TaggedVal) Next(h Handle) TaggedVal {
	return PackTagged(h, v.Tag()+1)
}

// TaggedMark is the Harris/Michael deletion mark: list-shaped
// structures (internal/set) flag a node as logically deleted by
// setting this bit in the node's next word, atomically with the
// handle and tag. The bit is the top bit of the handle field, so
// handles are limited to 2^31-1 — Pool.Get enforces exactly that
// boundary (far beyond any real arena), so a live handle can never
// alias the mark.
const TaggedMark TaggedVal = 1 << 63

// Marked reports whether the word carries the deletion mark.
func (v TaggedVal) Marked() bool { return v&TaggedMark != 0 }

// WithMark returns the word with the deletion mark set.
func (v TaggedVal) WithMark() TaggedVal { return v | TaggedMark }

// WithoutMark returns the word with the deletion mark cleared.
func (v TaggedVal) WithoutMark() TaggedVal { return v &^ TaggedMark }

// TaggedRef is an atomic register holding a TaggedVal over records of
// type T allocated from one Pool. It supports the model's three base
// operations with the same Observer instrumentation as Word and Ref,
// so the pooled backends plug into the E1 access counting and the
// deterministic scheduler unchanged.
//
// Records are NOT immutable across recycling: after a Put, the pool
// may hand the same handle to another operation, which rewrites the
// record's fields. Algorithms must therefore either (a) only trust a
// dereferenced field when a subsequent CAS on the register succeeds
// (the tag proves the register — hence the record — was untouched in
// between), or (b) validate a read snapshot by re-reading the register
// word. Record fields a stale reader may load must be atomics: such a
// reader may race a recycler, and although every such read is
// discarded by (a)/(b), the access itself must be data-race-free. A payload touched only by the record's
// owner — before the CAS that publishes it, after the CAS that hands
// it over — is never read stale and may be a plain field of any type
// (stack.Treiber, queue.MichaelScott).
type TaggedRef[T any] struct {
	w    atomic.Uint64
	pool *Pool[T]
	obs  Observer
}

// NewTaggedRef returns an uninstrumented tagged register over pool
// holding init.
func NewTaggedRef[T any](pool *Pool[T], init TaggedVal) *TaggedRef[T] {
	return NewTaggedRefObserved(pool, init, nil)
}

// NewTaggedRefObserved returns a tagged register whose every access is
// reported to obs first. A nil obs is equivalent to NewTaggedRef.
func NewTaggedRefObserved[T any](pool *Pool[T], init TaggedVal, obs Observer) *TaggedRef[T] {
	r := &TaggedRef[T]{pool: pool, obs: obs}
	r.w.Store(uint64(init))
	return r
}

// Init initializes r in place over pool holding init, reporting to
// obs. It exists for registers embedded inside pooled records (a list
// node's next register, say), which cannot be assigned from a
// constructed TaggedRef because the atomic word must not be copied.
// Call it only while no other process can reach r — in practice from a
// Pool's init hook, once per freshly carved record; recycled records
// keep their accumulated tag and are never re-Init'ed.
func (r *TaggedRef[T]) Init(pool *Pool[T], init TaggedVal, obs Observer) {
	r.pool = pool
	r.obs = obs
	r.w.Store(uint64(init))
}

// Read returns the current 〈handle, tag〉 word.
func (r *TaggedRef[T]) Read() TaggedVal {
	if r.obs != nil {
		r.obs.OnAccess(Read)
	}
	return TaggedVal(r.w.Load())
}

// Write stores v into the register.
func (r *TaggedRef[T]) Write(v TaggedVal) {
	if r.obs != nil {
		r.obs.OnAccess(Write)
	}
	r.w.Store(uint64(v))
}

// CAS atomically replaces old with new and reports whether it did.
// Handle and tag are compared together: a recycled handle with an
// advanced tag does not match an old word.
func (r *TaggedRef[T]) CAS(old, new TaggedVal) bool {
	if r.obs != nil {
		r.obs.OnAccess(CAS)
	}
	return r.w.CompareAndSwap(uint64(old), uint64(new))
}

// Deref resolves the word's handle in the register's pool; a nil
// handle yields nil. Dereferencing is not a shared access of the
// model (the arena is private memory) and is not observed.
func (r *TaggedRef[T]) Deref(v TaggedVal) *T {
	if v.Handle() == NilHandle {
		return nil
	}
	return r.pool.At(v.Handle())
}

// Pool returns the register's backing pool.
func (r *TaggedRef[T]) Pool() *Pool[T] { return r.pool }

// TaggedRefs is a fixed array of tagged registers sharing one pool and
// observer, the pooled sibling of Refs.
type TaggedRefs[T any] struct {
	regs []TaggedRef[T]
}

// NewTaggedRefs returns n registers over pool, the i-th initialized to
// init(i). A nil obs disables instrumentation.
func NewTaggedRefs[T any](pool *Pool[T], n int, init func(i int) TaggedVal, obs Observer) *TaggedRefs[T] {
	a := &TaggedRefs[T]{regs: make([]TaggedRef[T], n)}
	for i := range a.regs {
		a.regs[i].pool = pool
		a.regs[i].obs = obs
		a.regs[i].w.Store(uint64(init(i)))
	}
	return a
}

// At returns the i-th register.
func (a *TaggedRefs[T]) At(i int) *TaggedRef[T] { return &a.regs[i] }

// Len returns the number of registers.
func (a *TaggedRefs[T]) Len() int { return len(a.regs) }
