// Package set carries the paper's methodology — abortable weak object
// → retry / contention-sensitive / combining strong object — to a
// genuinely new workload shape: a sorted list-based set, where
// read-mostly membership traversals dominate instead of the
// stack/queue tier's endpoint contention ("A Concurrency-Optimal
// List-Based Set", Aksenov et al., and "In the Search of Optimal
// Concurrency", Gramoli, Kuznetsov & Ravi, argue this is where
// concurrency trade-offs become visible; see PAPERS.md).
//
// Keys are uint64 throughout the tier (map richer domains through an
// index or hash). Two weak/lock-free list designs anchor the ladder:
//
//   - Abortable — the Figure 1 pattern on a copy-on-write sorted
//     list: one boxed root register carries the whole (immutable)
//     list, a mutating attempt path-copies down to its window and
//     CASes the root, aborting on interference. Contains reads the
//     root once and walks private immutable memory: wait-free, never
//     aborts. Updates serialize at the root — the price paid for a weak
//     object this simple; the ladder's strong constructions
//     (Sensitive, NonBlocking, Combining) stack over it exactly as
//     over the weak stack.
//   - Harris — the Harris/Michael lock-free linked list (Harris,
//     DISC 2001; Michael, SPAA 2002) over pooled, recycled two-word
//     nodes: a key and a bare tagged 〈handle, seqnb〉 next word
//     (memory.TaggedVal plus the TaggedMark deletion bit) whose
//     accesses the list reports to its one observer. Disjoint windows
//     update in parallel; node recycling makes §2.2's ABA real on
//     every next register and the tags are load-bearing, as in the
//     allocation tier.
//
// Both lists pay per-operation work that grows with the resident key
// count. Hash is the exit: the split-ordered hash layer (Shalev &
// Shavit, J.ACM 2006) over the same Harris engine — one list in
// bit-reversed key order, a lazily split, CAS-doubled array of 8-byte
// sentinel shortcut words into it — bringing Add/Remove/Contains to O(1)
// expected while reusing the mark/unlink, tag-validation and
// recycling disciplines unchanged (keys < 2^63; one reserved bit).
//
// Experiments E18/E19 measure the tier across read ratios and key
// ranges; sched.HarrisABASchedule and sched.HashSplitABASchedule
// replay the recycled-node ABA windows deterministically.
package set
