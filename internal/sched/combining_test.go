package sched

import (
	"fmt"
	"testing"
)

// traceString renders a trace compactly for exact (byte-for-byte)
// schedule pinning.
func traceString(tr []Step) string {
	s := ""
	for _, st := range tr {
		s += fmt.Sprintf("%d:%v ", st.Pid, st.Access)
	}
	return s
}

func TestCombiningTakeoverSchedule(t *testing.T) {
	// The canonical pinned lease takeover: the combiner crashes with
	// the lease held, CONTENTION raised and a foreign request pending;
	// the survivor's pop can only complete by stealing the lease (the
	// builder's Check asserts Steals >= 1 on top of linearizability).
	build, sched, plan := CombiningTakeoverSchedule()
	tr, err := Replay(build, sched, plan)
	if err != nil {
		t.Fatalf("takeover schedule failed: %v", err)
	}
	// The schedule is exact: p0 gets its planned prefix and nothing
	// after the crash; every remaining step is the survivor's.
	for i, st := range tr {
		want := 1
		if i < len(sched) {
			want = sched[i]
		}
		if st.Pid != want {
			t.Fatalf("step %d ran pid %d, want %d (trace %s)", i, st.Pid, want, traceString(tr))
		}
	}
	// Deterministic replay: the same schedule reproduces the identical
	// access trace, byte for byte.
	build2, sched2, plan2 := CombiningTakeoverSchedule()
	tr2, err := Replay(build2, sched2, plan2)
	if err != nil {
		t.Fatalf("takeover replay failed: %v", err)
	}
	if traceString(tr) != traceString(tr2) {
		t.Fatalf("replay diverged:\n  first:  %s\n  second: %s", traceString(tr), traceString(tr2))
	}
}

func TestCombiningCrashGateCount(t *testing.T) {
	// CombiningCrashGates is implementation-exact: one past the number
	// of shared accesses p0's crash-free contended push performs under
	// the default schedule. A drift here silently weakens the sweep.
	tr, err := Replay(CombiningCrashBuilder(false), nil, nil)
	if err != nil {
		t.Fatalf("crash-free combining run failed: %v", err)
	}
	p0 := 0
	for _, st := range tr {
		if st.Pid == 0 {
			p0++
		}
	}
	if p0+1 != CombiningCrashGates {
		t.Fatalf("p0 performed %d accesses; CombiningCrashGates = %d, want %d (trace %s)",
			p0, CombiningCrashGates, p0+1, traceString(tr))
	}
}

func TestCombiningCrashSweep(t *testing.T) {
	// Crash the combiner at every §5 step of the contended push —
	// before publication is collected, between lease acquisition and
	// CONTENTION, mid-apply, after serving the foreign slot, and past
	// the end (no crash) — and require the survivor to complete with a
	// linearizable history at every point.
	if err := SweepCrashPoints(CombiningCrashGates, CombiningCrashBuilder(false)); err != nil {
		t.Fatal(err)
	}
}

func TestCombiningCrashPooledBackends(t *testing.T) {
	// The single-op crash runs on the recycling stacks too: a crashed
	// process's in-flight node is leaked, never recycled, and the
	// survivor stays consistent at every crash point.
	survivor := []Op{{opPush, 100}, {opPop, 0}, {opPop, 0}, {opPop, 0}}
	for _, name := range []string{"stack/pooled-treiber", "stack/boxed"} {
		for _, op := range []Op{{opPush, 77}, {opPop, 0}} {
			if err := SweepCrashPoints(8, crashRun(name, []uint64{10, 20}, op, survivor)); err != nil {
				t.Fatalf("%s op=%+v: %v", name, op, err)
			}
		}
	}
}

func TestCrashPopEveryPoint(t *testing.T) {
	// The pop sibling of TestCrashMidPushEveryPoint: crash a popper at
	// every point; the history must be explainable with the crashed pop
	// absent, returning any reachable value, or reporting empty.
	survivor := []Op{{opPush, 100}, {opPop, 0}, {opPop, 0}, {opPop, 0}}
	for _, name := range []string{"stack/boxed", "stack/packed"} {
		if err := SweepCrashPoints(6, crashRun(name, []uint64{10, 20}, Op{opPop, 0}, survivor)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
