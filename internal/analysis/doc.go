// Package analysis implements contlint, the repo's static-enforcement
// layer: a suite of vet-style passes that turn the concurrency
// disciplines the dynamic harnesses (race detector, fuzzers, pinned
// replay schedules) can only witness per-execution into compile-time
// facts checked over every package on every build.
//
// The suite (see Suite) encodes the house rules:
//
//   - mixedatomic: a struct field accessed through sync/atomic anywhere
//     must never be plain-read or plain-written elsewhere, and fields
//     of the atomic.* register types must only be touched through
//     their methods (or by address) — the classic latent race the
//     dynamic detector only finds on witnessed interleavings.
//   - taggedword: memory.TaggedRef registers may only be built by
//     their constructors and advanced by CAS; copying one —
//     by assignment, argument passing, return, range, or composite
//     literal — forks the atomic word and breaks the §2.2 sequence-tag
//     discipline that makes recycled-node CAS safe.
//   - pidflow: a `pid int` parameter is the catalog's process identity
//     and must flow to the backend call unmodified — reassigning it,
//     shadowing it, or passing anything else where a callee expects a
//     pid breaks the per-process striping contract everything from the
//     combining arrays to the sched controller relies on.
//   - retryloop: naked unbounded `for { ...CAS... }` retry spins
//     outside the allowlisted engines (internal/core, internal/memory,
//     the internal/set list engine) must route through core.Retry /
//     core.RetryOp so WithRetryPolicy pacing and ErrExhausted
//     graceful degradation stay universal.
//   - benchregistry: experiment registrations in internal/bench are
//     checked statically — literal contiguous ids, no duplicates, Gate
//     strings that name their own experiment — instead of at register
//     panic time.
//   - unusedwrite: straight-line dead stores (a value written to a
//     local and overwritten, or abandoned by return, before any read).
//     A deliberately conservative, SSA-free subset of the x/tools pass
//     of the same name (see the offline note below).
//   - nilness: dereference of a variable inside the very branch whose
//     condition proved it nil. Same note.
//
// Every pass honors a shared suppression comment,
//
//	//contlint:allow <pass> <reason>
//
// which silences exactly the named pass on the same line or the line
// below. Suppressions are themselves linted (pass allowlint): an
// unknown pass name, a missing reason, or a stale comment that no
// longer suppresses anything is a diagnostic, so annotations cannot
// outlive the code they excuse.
//
// Offline note: the canonical home for passes like these is
// golang.org/x/tools/go/analysis, and this package deliberately mirrors
// its Analyzer/Pass/Diagnostic shape and its analysistest golden-test
// workflow (checktest.go). The build environment pins a stdlib-only
// module (no module proxy at build time), so instead of depending on
// x/tools the package carries a minimal workalike: loading is done with
// `go list -export` plus the standard gc export-data importer
// (load.go), and cmd/contlint speaks both a standalone mode and the
// `go vet -vettool` unit-checker protocol (see cmd/contlint). If the
// module ever grows a vendored x/tools, the passes port over verbatim.
package analysis
