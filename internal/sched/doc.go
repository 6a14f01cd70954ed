// Package sched is a deterministic scheduler and stateless model
// checker for the algorithms in this repository. The paper's proofs
// (Lemmas 1-3, Theorem 1) quantify over every interleaving an
// adversarial scheduler can produce; goroutine stress tests exercise
// only a vanishing fraction of those, and Go offers no control over
// preemption. This package restores that control:
//
//   - every register constructor accepts a memory.Observer; the
//     controller here is an observer that blocks the accessing
//     goroutine just before each shared access until the scheduler
//     grants it, turning real register accesses of the *production
//     implementation* (not a re-encoding) into scheduling points;
//   - Explore enumerates schedules depth-first with replay (stateless
//     model checking), Walk samples them randomly, and Replay runs one
//     handcrafted schedule — which is how experiment E8 exhibits the
//     exact ABA interleaving of §2.2 deterministically;
//   - each run's operations are recorded and checked against a
//     sequential model with the linearizability checker, so the oracle
//     is the paper's own safety condition.
//
// Every model-checked run has one shape. A Target is one observed
// backend, named "<kind>/<variant>" in one table (Lookup picks one at
// a capacity): its Build closes over the concrete observed
// constructor and returns the uniform repro.Ops driver. An Op is one
// repro.Ops op code with its value. Program(target, initial, plans,
// post) builds the target, prefills it, runs one plan per process,
// and checks the history against the kind's model from the Kinds
// table — the same table internal/bench's recorded histories use —
// treating an op left pending by a CrashPlan crash as taking any
// effect or none, failing a one-process program on any abort (claim
// A2), and finally running post on the built object. The named
// configurations of cmd/modelcheck are Programs; the pinned §2.2
// schedules are ABAReplays; the combining and adaptive crash runs are
// Programs too.
//
// Restrictions: the scheduled code must perform a bounded number of
// shared accesses per operation (weak/abortable operations qualify;
// spinning slow paths do not), and scheduled operations must not
// synchronize with each other except through observed registers. The
// scheduler releases one process at a time and attributes every
// observed access to the process it last released, so a scheduled
// operation must not start goroutines that touch observed registers
// (no object package starts one).
package sched
