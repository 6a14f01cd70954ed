package sched

import "testing"

// replayPinned replays the named ABA schedule and requires it to pass
// with its trace exactly as long as its schedule.
func replayPinned(t *testing.T, name string) {
	r := abaReplay(t, name)
	trace, err := Replay(r.Build, r.Schedule, nil)
	if err != nil {
		t.Fatalf("%s ABA schedule failed: %v (trace %v)", name, err, trace)
	}
	if len(trace) != len(r.Schedule) {
		t.Fatalf("trace has %d steps, schedule %d (gate-count drift)", len(trace), len(r.Schedule))
	}
}

// TestPooledTreiberABAScheduleReplays verifies the satellite claim of
// E17's design: a recycled node returns to the same handle (address)
// mid-CAS, and the sequence tag makes the stale CAS fail — the program
// checks the remaining history is linearizable AND that recycling
// actually happened.
func TestPooledTreiberABAScheduleReplays(t *testing.T) { replayPinned(t, "pooled-treiber") }

func TestPooledMSABAScheduleReplays(t *testing.T) { replayPinned(t, "pooled-ms-queue") }

// TestPooledBackendsSoloNeverAbort extends the E2 obligation to the
// pooled backends: exhaustive solo schedules across the empty boundary
// must never abort (recycling must not cost abortability).
func TestPooledBackendsSoloNeverAbort(t *testing.T) {
	for _, name := range []string{"stack/pooled-treiber", "queue/pooled-ms"} {
		explore(t, name, Program(Lookup(name, 0), nil, [][]Op{soloPlan}, nil))
	}
}

// walk samples runs random schedules of plans over the named target
// prefilled with initial (a fifth of them under -short) and fails t on
// a violation.
func walk(t *testing.T, name string, initial []uint64, plans [][]Op, runs int, seed uint64) {
	t.Helper()
	if testing.Short() {
		runs /= 5
	}
	rep := Walk(Program(Lookup(name, 4), initial, plans, nil), runs, seed, Options{})
	if rep.Failure != nil {
		t.Fatalf("%s violated linearizability: %v (schedule %v)", name, rep.Failure.Err, rep.Failure.Schedule)
	}
}

// stackWalkPlans contend two processes over a stack [10 20], popping
// past empty and pushing recycled records.
var stackWalkPlans = [][]Op{
	{{opPop, 0}, {opPush, 30}},
	{{opPop, 0}, {opPop, 0}, {opPush, 40}},
}

// TestPooledAbortableRandomWalks hammers the Figure 1 stack, its
// values in recycled arena slots, with random schedules of a contended
// plan: every explored interleaving must stay linearizable despite
// record recycling.
func TestPooledAbortableRandomWalks(t *testing.T) {
	walk(t, "stack/boxed", []uint64{10, 20}, stackWalkPlans, 400, 0x9e37)
}

// TestPooledTreiberRandomWalks is the same obligation for the pooled
// Treiber stack, whose recycling is the most aggressive (LIFO free
// lists hand a popped node straight back to the next push).
func TestPooledTreiberRandomWalks(t *testing.T) {
	walk(t, "stack/pooled-treiber", []uint64{10, 20}, stackWalkPlans, 400, 0x5eed)
}

// TestPooledMSRandomWalks walks the pooled Michael-Scott queue.
func TestPooledMSRandomWalks(t *testing.T) {
	walk(t, "queue/pooled-ms", []uint64{10}, [][]Op{
		{{opPop, 0}, {opPush, 30}},
		{{opPop, 0}, {opPush, 40}, {opPop, 0}},
	}, 300, 0xaba)
}

// TestQueueBackendNames pins the queue targets' names.
func TestQueueBackendNames(t *testing.T) {
	kindVariants(t, "queue", "boxed", "packed", "pooled-ms")
}
