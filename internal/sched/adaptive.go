package sched

import (
	"fmt"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/memory"
	"repro/internal/set"
)

// AdaptiveMigrationSchedule returns the builder and handcrafted
// schedule that drive a full cow→harris migration of the adaptive set
// THROUGH a parked writer. Process 0 starts Add(30) on the cow rung —
// it reads the epoch record, reads the cow root (the list [10 20]),
// builds its path copy, and is preempted one step before the root CAS.
// Process 1 then runs MorphTo(harris) to completion: it opens the
// migration window with a fresh epoch record, seals the cow root (the
// seal CAS wins because the root register still holds the head p0
// read), snapshots the frozen list, builds the harris rung privately,
// and closes the window with one epoch CAS. When p0 resumes, its stale
// root CAS targets the sealed wrapper and MUST fail — were it to
// succeed, the insert would land in a structure that has already been
// snapshotted and abandoned, silently losing key 30. The failed CAS
// sends p0 back to the epoch record, where it finds the closed window
// and re-dispatches the same Add through the announce protocol onto
// the NEW harris rung. Check asserts the history linearizes, exactly
// one migration closed with none aborted, and the final harris rung
// holds {10 20 30}.
//
// Gate counts (observed accesses are the epoch record, the announce
// slots, the cow root, and — once built — the harris head and node
// next-registers; key loads and pool traffic are arena-private): p0's
// prefix is epoch read (1) + cow root read (1) = 2, parking it at the
// root CAS. p1's morph is epoch read (1) + window-open epoch CAS (1)
// + seal root read + seal root CAS (2) + snapshot root read (1) +
// the private harris rebuild from the descending snapshot — Add(20)
// on the empty list is head read (1) + node prep (2) + link CAS (1),
// Add(10) is head read (1) + one find step over node 20 (2) + prep
// (2) + link CAS (1), 10 in all — + the closing epoch CAS (1) + the
// re-read that observes the new stable rung (1) = 17. p0 finishes
// with the failed stale root CAS (1), the epoch re-read (1), its
// announce write + validating epoch re-read (2), the harris Add(30) —
// head read (1) + find steps over nodes 10 and 20 (4) + prep (2) +
// link CAS (1) — and the announce clear (1) = 13.
func AdaptiveMigrationSchedule() (Builder, []int) {
	build := Program(Lookup("set/adaptive", 0), []uint64{10, 20},
		[][]Op{{{opAdd, 30}}, {{opMorph, 1}}}, // rung 1 = harris
		func(inst any) error {
			s := inst.(*adaptive.Set)
			if st := s.Stats(); st.Migrations != 1 || st.Aborted != 0 {
				return fmt.Errorf("migrations = %d aborted = %d, want 1 and 0", st.Migrations, st.Aborted)
			}
			if _, ok := s.Unwrap().(*set.Harris); !ok {
				return fmt.Errorf("final rung is %T, want *set.Harris", s.Unwrap())
			}
			return snapshotIs(s, 10, 20, 30)
		})
	return build, segments(0, 2, 1, 17, 0, 13)
}

// AdaptiveMigrationGates is the number of shared accesses in the solo
// cow→harris MorphTo of CrashAdaptiveMigration's process 0 — the same
// 17-gate window pinned by AdaptiveMigrationSchedule (the migrator's
// gate profile does not depend on the parked writer). Sweeping crash
// points 0..AdaptiveMigrationGates+1 kills the migrator at every §5
// step of the window, including before its first access and after its
// last.
const AdaptiveMigrationGates = 17

// CrashAdaptiveMigration builds a §5 crash-tolerance run for the
// migration window itself: process 0 runs MorphTo(harris) over the
// prefilled cow set {10 20} and is crashed by the run's CrashPlan;
// process 1 then runs a strong op sequence to completion, solo. A
// migrator that dies before the seal leaves the window open but the
// cow source live — the survivor's updates go straight to the source
// and the stuck-open window is harmless. A migrator that dies after
// the seal leaves a frozen root — the survivor's first update helps:
// it snapshots, rebuilds the target, and closes the window itself. In
// no case may an element be stranded: Check asserts the survivor's
// history linearizes against the sequential set model, the final
// snapshot is exactly the expected membership on whichever rung the
// run ended, and no migration window aborted.
func CrashAdaptiveMigration() Builder {
	return crashAdaptiveMigration(0, 1) // cow → harris
}

// crashAdaptiveMigration is CrashAdaptiveMigration's run with the set
// first moved, unscheduled and before the prefill, to rung src and the
// migrator's MorphTo
// aimed at dst. From a gated source (harris, hash) a migrator that
// dies after the open leaves an unsealed window the survivor's first
// update quiesces, seals and closes; one that dies after the seal
// leaves a window the survivor closes.
func crashAdaptiveMigration(src, dst int) Builder {
	t := Lookup("set/adaptive", 0)
	build := t.Build
	t.Build = func(k, procs int, obs memory.Observer) repro.Ops {
		d := build(k, procs, obs)
		if got, _ := d.Do(0, opMorph, uint64(src)); got != 1 {
			panic(fmt.Sprintf("sched: prefill MorphTo(%d) failed", src))
		}
		return d
	}
	survivor := []Op{{opAdd, 30}, {opRem, 10}, {opHas, 20}, {opHas, 10}, {opHas, 30}}
	return Program(t, []uint64{10, 20}, [][]Op{{{opMorph, uint64(dst)}}, survivor},
		func(inst any) error {
			s := inst.(*adaptive.Set)
			// Each MorphTo moves one rung at a time, so reaching src
			// took src migrations.
			if st := s.Stats(); st.Migrations > uint64(src)+1 || st.Aborted != 0 {
				return fmt.Errorf("migrations = %d aborted = %d, want <= %d and 0", st.Migrations, st.Aborted, src+1)
			}
			return snapshotIs(s, 20, 30)
		})
}
