// Package combine implements flat combining over an abortable object:
// the scaling tier of the contended path.
//
// The contention-sensitive protocol (Figure 3, internal/core) is
// optimal when contention is rare: a solo operation costs six shared
// accesses and no lock. But its fallback serializes every contended
// operation behind one lock — each process acquires, retries the weak
// operation, releases, and the next process repeats the full hand-off.
// Under sustained contention the lock hand-off itself dominates.
//
// Flat combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010) keeps
// the same interface and the same lock-free shortcut but turns the
// contended path into a batched one: a process that hits contention
// publishes its request in a per-process publication slot and one
// process — the combiner, whoever wins the combiner lock — serves
// every published request in a single pass before releasing. One lock
// acquisition amortizes over the whole batch, and the waiting
// processes never touch the object's shared registers at all, which
// is exactly the parallelism-extraction direction of "In Search of
// Optimal Concurrency" (Gramoli, Kuznetsov & Ravi).
//
// Core is generic over the weak (abortable) operation, mirroring
// core.Do's shape: the fast path is the paper's line 01-02 shortcut
// (read CONTENTION, one weak attempt), so a contention-free operation
// still costs six accesses and no lock. Unlike Figure 3, an aborted
// attempt is retried: the shortcut repeats up to lock.SpinBudget
// times, re-reading CONTENTION before each attempt, and the request is
// published only when every attempt aborted or a combiner raised
// CONTENTION. Overlapping fast-path operations abort one another only
// briefly, and a combining pass costs far more than a few retries, so
// the publication list is kept for sustained contention. A running
// combiner still turns arrivals away at their next CONTENTION read.
//
// Liveness: the shortcut publishes after at most lock.SpinBudget
// attempts, and a published request is served by the current or next
// combining pass, because every combiner scans all slots before
// releasing. With a deadlock-free combiner lock the construction is
// therefore starvation-free — the same guarantee as Figure 3, by a
// helping argument instead of a round-robin one.
//
// Crash tolerance: the combiner role is a lease, not a lock. The
// holder heartbeats a shared word once per served slot; a waiter that
// observes the (lease, heartbeat) pair frozen for the lease budget
// presumes the holder crashed, CAS-steals the lease (bumping its
// epoch) and re-serves every still-pending slot. A combiner that dies
// mid-pass — the failure the paper's §5 crash model allows at any
// step — therefore costs the survivors one lease budget of spinning
// instead of wedging every future contended operation forever.
//
// The steal is safe against a merely-slow holder up to one in-flight
// application: the thief's CAS changes the lease word, and the old
// combiner re-reads that word before every slot application and
// abandons the pass when deposed. The one application it may already
// have started can still land after the thief re-serves the same
// slot — re-serving a black-box non-idempotent operation exactly once
// past an arbitrary crash point is impossible without operation-level
// idempotence — which is why, by default, a steal needs both the
// observation budget and a wall-clock floor (defaultLeaseBudget,
// defaultLeaseTimeout): a live combiner whose thread is merely
// descheduled is not presumed dead. Deterministic tests set the budget
// explicitly, which drops the floor, and inject crashes at the
// pre-apply point, where takeover is exactly-once.
package combine
