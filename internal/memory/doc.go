// Package memory provides the shared-memory substrate assumed by the
// paper's computation model (§2): atomic registers supporting read,
// write and Compare&Swap, optionally instrumented so that every shared
// access can be observed (counted, traced, or gated by a deterministic
// scheduler).
//
// Three register families are provided:
//
//   - Word and Flag: single 64-bit (resp. boolean) registers backed by
//     sync/atomic. Multi-field register contents such as the paper's
//     TOP = 〈index, value, seqnb〉 are bit-packed into one word with the
//     codecs in pack.go, exactly as on the machines the paper cites
//     (single-word CAS).
//   - Ref[T]: a register holding an immutable boxed record (*T), for
//     arbitrary payload types. CAS compares the boxed pointer read
//     earlier, so a successful CAS proves the register was not written
//     in between — the GC prevents pointer-level ABA, at the price of
//     one heap allocation per published record.
//   - TaggedRef[T] over Pool[T] (tagged.go, pool.go): a register
//     holding 〈handle, seqnb〉 in one word, with records recycled
//     through a type-stable arena (per-pid free lists, shared
//     overflow). The hot path allocates nothing (experiment E17);
//     recycling makes ABA real again and the tag, CASed together with
//     the handle, is what defeats it. A structure with a register per
//     record (internal/set's list nodes and buckets) embeds bare
//     atomic.Uint64 words holding a TaggedVal instead, and reports
//     their accesses to its one observer.
//
// Words and Refs[T] are fixed arrays of the first two families (the
// shape of the paper's STACK[0..k]): one word per register and one
// observer for the whole array, accessed by index.
//
// Sequence tags are carried by all families because the paper's
// algorithms use them (§2.2): they make logical ABA detectable and are
// load-bearing in the packed family, where the same 64-bit pattern can
// recur, and in the pooled family, where the same handle genuinely
// returns.
//
// Instrumentation. Every register constructor has an Observed variant
// taking an Observer whose OnAccess method is invoked immediately
// before each shared access. A nil observer (the plain constructors)
// costs a single predictable branch. Stats is the counting observer
// used by the E1 step-complexity experiment; package sched supplies a
// gating observer that turns real register accesses into deterministic
// scheduler decision points.
package memory
