// Package core writes the paper's two object-agnostic constructions
// once, for any abortable ("weak") operation; every kind's
// NonBlocking and Sensitive is a shell over them.
//
//   - a weak operation (§3) is a single attempt that either takes
//     effect and returns a result, or aborts (⊥) with no effect. The
//     objects write it as func() (V, error) with a per-kind ⊥ error
//     (nil: every error is ⊥); Retry, RetryCounted and Do take the
//     comma-ok func() (R, bool) instead. Solo attempts must never
//     abort (abortable objects are obstruction-free by construction).
//   - Figure 2: RetryOp retries a weak operation until success under
//     a Retrier — a contention Manager (§5) pacing the retries and an
//     optional budget that sheds with ErrExhausted. Every NonBlocking
//     embeds a Retrier.
//   - Figure 3: DoOp over an object's Guard serves the contention-free
//     case on a lock-free shortcut — one CONTENTION read plus one weak
//     attempt, no lock — and serializes conflicting operations behind
//     a PidLock, typically lock.NewFigure3 (lock.RoundRobin over a
//     deadlock-free TTAS lock), which makes the object starvation-free
//     (Theorem 1). Every Sensitive embeds a Guarded.
//
// Progress documents the liveness hierarchy the paper walks through
// (§1.2): obstruction-freedom ⊂ non-blocking ⊂ starvation-freedom;
// LockProgress places a lock-using object in it by its lock.
package core
