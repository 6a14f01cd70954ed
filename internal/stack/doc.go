// Package stack implements the concurrent bounded stack family that
// the paper develops incrementally (§3-§4), plus the baselines its
// argument is measured against:
//
//   - Abortable[T] (Figure 1) — the abortable stack, a simplified
//     version of Shafiei's non-blocking array stack: TryPush/TryPop
//     are single attempts that either take effect or abort (⊥) with
//     no effect; solo attempts never abort. TOP and STACK[x] are
//     single words holding a slot handle and a sequence number; the
//     values of any T sit in a per-pid recycled arena, written once
//     per push, so the hot path allocates nothing.
//   - Packed — the same algorithm on a single bit-packed 64-bit word
//     per register with the value itself in the word (uint32 values),
//     matching the paper's machine model word-for-word; used by E1
//     and the ablation benchmarks.
//   - NonBlocking[T] (Figure 2) — retry the weak operation until it
//     succeeds; at least one concurrent operation always terminates.
//   - Sensitive[T] (Figure 3) — the contention-sensitive,
//     starvation-free stack: lock-free shortcut in contention-free
//     runs (six shared-memory accesses, no lock), a single lock under
//     contention.
//   - LockBased[T] — the traditional fully lock-based implementation
//     (§1.1) over any lock.
//   - Treiber[T] — the classic unbounded lock-free linked stack, the
//     standard non-blocking comparator, over pooled nodes recycled
//     under the §2.2 tags at any T; Elimination[T] adds an
//     elimination-backoff array on top of it.
//   - Naive[T] — a deliberately ABA-broken CAS stack (§2.2's cautionary
//     tale) used only by experiment E8 and the model checker.
//
// Every weak attempt and every strong operation takes the calling pid
// in [0, n): the arena and the pooled Treiber nodes are recycled
// through per-pid free lists (Packed and Naive ignore it).
//
// All stacks are linearizable (checked by internal/linearizability)
// except Naive, whose purpose is to fail those checks.
package stack
