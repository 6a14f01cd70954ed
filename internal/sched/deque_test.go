package sched

import "testing"

// dequeRace explores plans over a capacity-4 deque prefilled
// rightward with initial.
func dequeRace(t *testing.T, what string, initial []uint64, plans [][]Op) {
	t.Helper()
	rep := explore(t, what, Program(Lookup("deque/abortable", 4), initial, plans, nil))
	t.Logf("%s: %d schedules, all linearizable", what, rep.Schedules)
}

func TestExhaustiveDequeOppositeEnds(t *testing.T) {
	// pushr racing popl on a deque with one element: every
	// interleaving must be linearizable.
	dequeRace(t, "pushr/popl race", []uint64{7}, [][]Op{{{opPushR, 9}}, {{opPopL, 0}}})
}

func TestExhaustiveDequeSameEndPops(t *testing.T) {
	// Two racing right-pops over two elements: no duplicates, no
	// losses, in every interleaving.
	dequeRace(t, "popr/popr race", []uint64{1, 2}, [][]Op{{{opPopR, 0}}, {{opPopR, 0}}})
}

func TestExhaustiveDequeBothEndsOfSingleton(t *testing.T) {
	// The HLM hot spot: popl racing popr over ONE element — exactly
	// one may win it, the other gets empty or aborts.
	dequeRace(t, "popl/popr singleton race", []uint64{42}, [][]Op{{{opPopL, 0}}, {{opPopR, 0}}})
}

func TestExhaustiveDequeEmptyRace(t *testing.T) {
	// pushl racing popr on an empty deque: the pop may see empty or
	// the pushed value, never garbage.
	dequeRace(t, "pushl/popr empty race", nil, [][]Op{{{opPushL, 5}}, {{opPopR, 0}}})
}

func TestWalkDequeThreeProcs(t *testing.T) {
	// Larger configuration via random walks: two ops per process,
	// all four kinds in play.
	build := Program(Lookup("deque/abortable", 6), []uint64{1, 2}, [][]Op{
		{{opPushR, 10}, {opPopL, 0}},
		{{opPushL, 20}, {opPopR, 0}},
		{{opPopR, 0}, {opPushR, 30}},
	}, nil)
	rep := Walk(build, 400, 99, Options{})
	if rep.Failure != nil {
		t.Fatalf("3-proc walk: %v\ntrace: %v", rep.Failure.Err, rep.Failure.Trace)
	}
}
