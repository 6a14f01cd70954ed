package sched

import (
	"strings"
	"testing"

	lin "repro/internal/linearizability"
	"repro/internal/memory"
)

// crashRun is the §5 single-crash program: process 0 runs op on the
// named stack (capacity 8) prefilled with initial, process 1 runs
// survivor; the run's CrashPlan decides where process 0 dies.
func crashRun(name string, initial []uint64, op Op, survivor []Op) Builder {
	return Program(Lookup(name, 8), initial, [][]Op{{op}, survivor}, nil)
}

// TestCrashedOpCompletions pins the pending-op rule directly: a
// survivor's pop of the crashed push's value is explained by the push
// having taken effect, and a pop of a value nobody pushed is not.
func TestCrashedOpCompletions(t *testing.T) {
	m := lin.StackModel(8)
	crashed := []lin.Op{{Proc: 0, Call: 1, Kind: "push", Input: 77}}
	outs := []uint64{0, 1, 77}
	pop := func(v uint64) []lin.Op {
		return []lin.Op{{Proc: 1, Call: 2, Return: 3, Kind: "pop", Output: v}}
	}
	if err := checkHistory(m, pop(77), crashed, outs); err != nil {
		t.Fatalf("pop of the crashed push's value rejected: %v", err)
	}
	if err := checkHistory(m, pop(78), crashed, outs); err == nil ||
		!strings.Contains(err.Error(), "with or without the crashed push") {
		t.Fatalf("pop of an unpushed value accepted: %v", err)
	}
}

func TestCrashMidPushEveryPoint(t *testing.T) {
	// §5: crash the pusher after each possible number of shared
	// accesses (a boxed weak push has 5); the survivor must complete
	// all its operations and see a consistent stack either way.
	survivor := []Op{{opPush, 100}, {opPop, 0}, {opPop, 0}, {opPop, 0}, {opPop, 0}} // drains to empty
	for _, name := range []string{"stack/boxed", "stack/packed"} {
		build := crashRun(name, []uint64{10, 20}, Op{opPush, 77}, survivor)
		for crashAt := 0; crashAt <= 5; crashAt++ {
			if _, err := Replay(build, segments(0, crashAt), CrashPlan{0: crashAt}); err != nil {
				t.Fatalf("%s crashAt=%d: %v", name, crashAt, err)
			}
		}
	}
}

func TestCrashBeyondOpCompletes(t *testing.T) {
	// A crash limit beyond the op's access count means no crash: the
	// run completes and the marker must be on the stack.
	build := crashRun("stack/boxed", nil, Op{opPush, 77}, []Op{{opPop, 0}})
	if _, err := Replay(build, segments(0, 5), CrashPlan{0: 50}); err != nil {
		t.Fatalf("uncrashed run failed: %v", err)
	}
}

func TestCrashSurvivorSeesEffectiveCrashedPush(t *testing.T) {
	// Crash the pusher right after its TOP CAS (access 5 of a boxed
	// push, counting the 5th as the CAS: grant all 5, crash before
	// any further op). The push took effect, so the survivor's pop
	// must return the marker — and the check must accept it via the
	// "crashed op took effect" branch.
	build := crashRun("stack/boxed", nil, Op{opPush, 77}, []Op{{opPop, 0}})
	if _, err := Replay(build, segments(0, 5), CrashPlan{0: 5}); err != nil {
		t.Fatalf("effective crashed push rejected: %v", err)
	}
}

func TestCrashRejectsNondeterministicSchedule(t *testing.T) {
	build := crashRun("stack/boxed", nil, Op{opPush, 77}, []Op{{opPop, 0}})
	// Granting p0 three accesses contradicts a crash after one.
	_, err := Replay(build, segments(0, 3), CrashPlan{0: 1})
	if err == nil || !strings.Contains(err.Error(), "non-deterministic replay") {
		t.Fatalf("expected replay mismatch, got %v", err)
	}
}

func TestCrashedHolderOfNaiveInvariantStillChecked(t *testing.T) {
	// Control: a run under a nil CrashPlan crashes nobody and passes.
	build := Program(Lookup("stack/boxed", 2), []uint64{7}, [][]Op{{{opPush, 9}}, {{opPop, 0}}}, nil)
	if _, err := Replay(build, nil, nil); err != nil {
		t.Fatalf("crash-free Replay failed: %v", err)
	}
}

// TestCrashLeavesGateOpenForSurvivorChecks ensures the post-run Check
// (which reads registers through the same observer) is not blocked by
// the crashed process's controller.
func TestCrashLeavesGateOpenForSurvivorChecks(t *testing.T) {
	checked := false
	build := func(obs memory.Observer) Run {
		w := memory.NewWordObserved(0, obs)
		return Run{
			Ops: [][]func(){
				{func() { w.Write(1); w.Write(2) }},
				{func() { w.Read() }},
			},
			Check: func() error {
				_ = w.Read() // must not block
				checked = true
				return nil
			},
		}
	}
	if _, err := Replay(build, []int{0}, map[int]int{0: 1}); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("Check did not run")
	}
}
