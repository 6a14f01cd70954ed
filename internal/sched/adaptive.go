package sched

import (
	"fmt"

	"repro/internal/adaptive"
	lin "repro/internal/linearizability"
	"repro/internal/memory"
	"repro/internal/set"
)

// adaptiveSetBuilder wires an adaptive set, its prefill, and a
// linearizability recorder into a Run. The adaptive set's strong ops
// never abort, so every history outcome is OK; MorphTo is a control
// action, not an abstract set operation, and is kept out of the
// history.
func adaptiveSetRecordedOp(rec *lin.Recorder, s *adaptive.Set, pid int, p SetOp) func() {
	return func() {
		pend := rec.Invoke(pid, p.Kind, p.Key)
		var res bool
		switch p.Kind {
		case "add":
			res = s.Add(pid, p.Key)
		case "rem":
			res = s.Remove(pid, p.Key)
		case "has":
			res = s.Contains(pid, p.Key)
		default:
			panic("sched: unknown set op kind")
		}
		out := uint64(0)
		if res {
			out = 1
		}
		rec.Return(pend, out, lin.OutcomeOK)
	}
}

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
	initial := []uint64{10, 20}
	build := func(obs memory.Observer) Run {
		s := adaptive.NewSetObserved(2, adaptive.Thresholds{QuiesceBudget: 1 << 10}, obs)
		for _, k := range initial {
			if !s.Add(0, k) {
				panic(fmt.Sprintf("sched: prefill add(%d) = false", k))
			}
		}
		rec := lin.NewRecorder(2)
		for _, k := range initial {
			pend := rec.Invoke(0, "add", k)
			rec.Return(pend, 1, lin.OutcomeOK)
		}
		var morphOK bool
		ops := [][]func(){
			{adaptiveSetRecordedOp(rec, s, 0, SetOp{Kind: "add", Key: 30})},
			{func() { morphOK = s.MorphTo(1, 1) }}, // rung 1 = harris
		}
		return Run{Ops: ops, Check: func() error {
			if !morphOK {
				return fmt.Errorf("MorphTo(harris) did not reach its rung")
			}
			h := rec.History()
			res := lin.Check(lin.SetModel(), h, 0)
			if !res.Ok {
				return fmt.Errorf("history not linearizable: %v", h)
			}
			st := s.Stats()
			if st.Migrations != 1 || st.Aborted != 0 {
				return fmt.Errorf("migrations = %d aborted = %d, want 1 and 0", st.Migrations, st.Aborted)
			}
			if _, ok := s.Unwrap().(*set.Harris); !ok {
				return fmt.Errorf("final rung is %T, want *set.Harris", s.Unwrap())
			}
			return checkSnapshot(s.Snapshot(), []uint64{10, 20, 30})
		}}
	}
	sched := make([]int, 0, 32)
	for i := 0; i < 2; i++ {
		sched = append(sched, 0)
	}
	for i := 0; i < 17; i++ {
		sched = append(sched, 1)
	}
	for i := 0; i < 13; i++ {
		sched = append(sched, 0)
	}
	return build, sched
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
// prefilled cow set {10 20} and crashes after crashAt shared accesses;
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
func CrashAdaptiveMigration(crashAt int) (Builder, CrashPlan) {
	return crashAdaptiveMigration(0, 1, crashAt) // cow → harris
}

// crashAdaptiveMigration is CrashAdaptiveMigration's run with the
// prefilled set first moved, unscheduled, to rung src and the
// migrator's MorphTo aimed at dst. From a gated source (harris, hash)
// a migrator that dies after the open leaves an unsealed window the
// survivor's first update quiesces, seals and closes; one that dies
// after the seal leaves a window the survivor closes.
func crashAdaptiveMigration(src, dst, crashAt int) (Builder, CrashPlan) {
	initial := []uint64{10, 20}
	survivor := []SetOp{
		{Kind: "add", Key: 30},
		{Kind: "rem", Key: 10},
		{Kind: "has", Key: 20},
		{Kind: "has", Key: 10},
		{Kind: "has", Key: 30},
	}
	build := func(obs memory.Observer) Run {
		s := adaptive.NewSetObserved(2, adaptive.Thresholds{QuiesceBudget: 1 << 10}, obs)
		for _, k := range initial {
			if !s.Add(0, k) {
				panic(fmt.Sprintf("sched: prefill add(%d) = false", k))
			}
		}
		if !s.MorphTo(0, src) {
			panic(fmt.Sprintf("sched: prefill MorphTo(%d) failed", src))
		}
		base := s.Stats().Migrations
		rec := lin.NewRecorder(2)
		for _, k := range initial {
			pend := rec.Invoke(0, "add", k)
			rec.Return(pend, 1, lin.OutcomeOK)
		}
		ops := [][]func(){
			{func() { s.MorphTo(0, dst) }}, // crashes mid-window
			nil,
		}
		for _, p := range survivor {
			ops[1] = append(ops[1], adaptiveSetRecordedOp(rec, s, 1, p))
		}
		return Run{Ops: ops, Check: func() error {
			h := rec.History()
			res := lin.Check(lin.SetModel(), h, 0)
			if !res.Ok {
				return fmt.Errorf("survivor history not linearizable: %v", h)
			}
			st := s.Stats()
			if st.Migrations > base+1 || st.Aborted != 0 {
				return fmt.Errorf("migrations = %d aborted = %d, want <= %d and 0", st.Migrations, st.Aborted, base+1)
			}
			return checkSnapshot(s.Snapshot(), []uint64{20, 30})
		}}
	}
	return build, CrashPlan{0: crashAt}
}

// checkSnapshot compares a quiescent snapshot against the expected
// ascending membership.
func checkSnapshot(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("final set %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("final set %v, want %v", got, want)
		}
	}
	return nil
}
