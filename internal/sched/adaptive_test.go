package sched

import (
	"testing"

	"repro/internal/adaptive"
	"repro/internal/memory"
)

// TestAdaptiveMigrationScheduleReplays verifies the adaptive set's
// mid-flight migration property deterministically: a writer parked
// between its cow root read and root CAS while a full cow→harris
// migration runs to completion MUST fail its stale CAS against the
// sealed root and re-dispatch onto the new rung. The trace length is
// pinned to the schedule length: any drift in the protocol's gate
// count (an access added or removed anywhere in the open/seal/
// snapshot/rebuild/close window) fails loudly here rather than
// silently exploring a different interleaving.
func TestAdaptiveMigrationScheduleReplays(t *testing.T) {
	build, schedule := AdaptiveMigrationSchedule()
	trace, err := Replay(build, schedule, 0)
	if err != nil {
		t.Fatalf("adaptive migration schedule failed: %v (trace %v)", err, trace)
	}
	if len(trace) != len(schedule) {
		t.Fatalf("trace has %d steps, schedule %d (gate-count drift)", len(trace), len(schedule))
	}
}

// harrisMigrationGates is the number of shared accesses in the solo
// harris→hash MorphTo of the harris-source crash sweep, the set's
// observed record-seal path: epoch read (1) + window-open epoch CAS (1)
// + quiesce read of pid 1's announce (1) + seal CAS (1) + the harris
// snapshot — head read and the next reads of nodes 10 and 20 (3) —
// + the private hash rebuild of {10 20} — per Add a bucket-word read,
// a sentinel next read, node prep (2) and a link CAS, and for Add(20)
// one find step over node 10 (2), 12 in all — + the closing epoch CAS
// (1) + the re-read that observes the new stable rung (1) = 21.
const harrisMigrationGates = 21

// TestAdaptiveMigrationGateCounts pins both swept windows' gate counts
// against a solo run under a counting observer, so a drift in either
// fails here rather than shrinking a sweep's coverage.
func TestAdaptiveMigrationGateCounts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		src, dst   int
		wantAccess int
	}{{"cow→harris", 0, 1, AdaptiveMigrationGates}, {"harris→hash", 1, 2, harrisMigrationGates}} {
		var st memory.Stats
		s := adaptive.NewSetObserved(2, adaptive.Thresholds{QuiesceBudget: 1 << 10}, &st)
		s.Add(0, 10)
		s.Add(0, 20)
		if !s.MorphTo(0, tc.src) {
			t.Fatalf("%s: MorphTo(%d) failed", tc.name, tc.src)
		}
		before := st.Snapshot()
		if !s.MorphTo(0, tc.dst) {
			t.Fatalf("%s: MorphTo(%d) failed", tc.name, tc.dst)
		}
		d := st.Snapshot().Sub(before)
		if got := int(d.Reads + d.Writes + d.CASes); got != tc.wantAccess {
			t.Fatalf("%s: migrator made %d accesses (%+v), want %d", tc.name, got, d, tc.wantAccess)
		}
	}
}

// TestAdaptiveMigrationCrashSweep kills the migrating process at every
// gate of a migration window — before the open, between open and
// seal, mid-rebuild, at the close, and past the end — and checks that
// the survivor always completes with the exact expected membership:
// a crashed migrator must never strand an element. It sweeps the
// cow→harris window (the cow root seal) and the harris→hash window
// (announce quiescence plus the observed record seal).
func TestAdaptiveMigrationCrashSweep(t *testing.T) {
	if err := SweepCrashPoints(AdaptiveMigrationGates+1, CrashAdaptiveMigration); err != nil {
		t.Fatalf("adaptive migration crash sweep: %v", err)
	}
	harris := func(crashAt int) (Builder, CrashPlan) { return crashAdaptiveMigration(1, 2, crashAt) }
	if err := SweepCrashPoints(harrisMigrationGates+1, harris); err != nil {
		t.Fatalf("harris-source migration crash sweep: %v", err)
	}
}
