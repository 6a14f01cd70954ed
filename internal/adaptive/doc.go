// Package adaptive implements contention-adaptive meta-backends: one
// wrapper per object kind that observes live contention signals and
// morphs between the catalog's fixed rungs at runtime, so the caller
// no longer has to guess the regime the paper says the choice depends
// on.
//
// # Ladders
//
// Each wrapper climbs (and descends) a ladder of existing backends:
//
//	Stack:  sensitive → combining
//	Queue:  sensitive → combining → sharded
//	Set:    cow → harris → hash
//
// The signals are the ones the experiments already measure: the
// guard's slow-path counter for the sensitive rungs (E15's crossover),
// the combine.Core publication counter for the combining rungs (E16),
// the copy-on-write abort rate and the approximate set size for the
// set ladder (E18/E19), the cmanager.Adaptive backoff level when one
// is attached, and the number of distinct active pids. Decisions are
// taken at per-pid operation-window boundaries under a try-lock, so
// the hot path pays only per-pid padded counters.
//
// # The epoch-gated handoff
//
// All of an object's regime state hangs off one atomic record
// register. A record is immutable after publication; every transition
// is a CAS installing a fresh record, so the register's pointer
// identity is the migration epoch:
//
//	stable{gen, rung, impl}  --open-->  mig{gen+1, rung, impl, dst}
//	mig  --close-->  stable{gen+2, dst, target}   (one winner)
//	mig  --abort-->  stable{gen+2, rung, impl}    (graceful degradation)
//
// The stack and queue containers add one step before the close: after
// quiescence a helper CASes mig{gen+1} to sealed{gen+2, rung, impl,
// dst}, which only closes (to stable{gen+3, dst, target}). The seal
// keeps a helper from snapshotting a source that an abort has already
// handed back to live operations.
//
// Writers on an announce-gated rung publish their intent in a per-pid
// padded announce register, then re-validate the record pointer (a
// Dekker-style handshake with the migrator) before touching the
// structure; a migrator that has opened a window spin-reads the
// announce array until every other slot is clear (quiescence), within
// a bounded budget. Once the source is quiescent it is frozen: the
// migrator (or any helper that finds the window open) snapshots it,
// rebuilds the target privately, and publishes target-plus-close in a
// single CAS — crash-restartable, because a half-built private target
// is simply garbage and the next helper rebuilds it.
//
// The copy-on-write set rung needs no announces at all: its whole
// state is one root register, so the migrator freezes it by CASing a
// sealed wrapper onto the root (set.Abortable.Seal). A writer parked
// mid-update across the flip fails its stale root CAS against the
// sealed root and re-dispatches through the record — the exact replay
// pinned by sched.AdaptiveMigrationSchedule.
//
// Readers never announce: during a window the source structure stays
// authoritative until the close CAS (the target is unreachable before
// it), which is the deterministic tie-break that keeps mid-flight
// reads linearizable.
//
// If quiescence cannot be reached within the budget (a crashed process
// with a stuck announce, or livelock-grade interference), the window
// is aborted: the source stays current and operations continue
// unharmed. After abortLimit consecutive aborts the object stops
// adapting — a stuck announce can cost the optimization, never
// liveness.
//
// See DESIGN.md §9 for the linearizability argument and EXPERIMENTS.md
// E23 for the phase-shift evaluation.
package adaptive
