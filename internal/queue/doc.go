// Package queue implements the bounded FIFO counterpart of the stack
// family, motivated by the paper's own example of non-interference:
// "enqueuing and dequeuing on a non-empty queue" do not conflict
// (§1.1), so a contention-sensitive queue should keep both ends
// lock-free except under genuine interference.
//
// The abortable queue follows the same recipe as the paper's Figure 1
// stack — CAS-able position registers plus per-slot sequence numbers
// against ABA (§2.2) — arranged as a ring:
//
//   - HEAD and TAIL are monotonically increasing tickets;
//   - slot j serves tickets pos with pos ≡ j (mod k); its sequence
//     register encodes the slot state: seq = 2·pos means free for the
//     enqueuer holding ticket pos, seq = 2·pos+1 means occupied and
//     ready for the dequeuer holding ticket pos;
//   - the value lives in place in the slot, for any element type: the
//     sequence gives each slot one writer and one reader per lap, so
//     no operation allocates.
//
// A weak operation makes one attempt: it claims its ticket with a
// single CAS and aborts (⊥) whenever it observes interference it
// cannot attribute (a mid-flight claim by another process). full and
// empty are reported only when a second read proves them — the
// analysis in abortable.go shows each such report is linearizable.
// A solo weak operation never aborts.
//
// On top of the weak queue the package assembles the same tower as the
// stack package: NonBlocking (Figure 2), Sensitive (Figure 3),
// LockBased (the traditional baseline) and MichaelScott (the classic
// unbounded lock-free comparator, over pooled nodes recycled under the
// §2.2 tags at any element type).
package queue
