package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/memory"
	"repro/internal/stack"
)

// counterBuilder builds a run of two processes each CAS-incrementing a
// shared register once, retry-free; check verifies both observed a
// consistent outcome.
func counterBuilder(fails *atomic.Int64) Builder {
	return func(obs memory.Observer) Run {
		w := memory.NewWordObserved(0, obs)
		results := make([]bool, 2)
		op := func(pid int) func() {
			return func() {
				v := w.Read()
				results[pid] = w.CAS(v, v+1)
			}
		}
		return Run{
			Ops: [][]func(){{op(0)}, {op(1)}},
			Check: func() error {
				wins := 0
				for _, r := range results {
					if r {
						wins++
					}
				}
				final := w.Read()
				if uint64(wins) != final {
					return fmt.Errorf("wins %d != final %d", wins, final)
				}
				if wins == 0 {
					fails.Add(1)
					return errors.New("both CASes failed (impossible)")
				}
				return nil
			},
		}
	}
}

func TestExploreEnumeratesAllInterleavings(t *testing.T) {
	var fails atomic.Int64
	rep := Explore(counterBuilder(&fails), Options{})
	if rep.Failure != nil {
		t.Fatalf("unexpected failure: %v", rep.Failure)
	}
	if !rep.Complete {
		t.Fatal("exploration did not complete")
	}
	// Two processes, two accesses each: C(4,2) = 6 interleavings.
	if rep.Schedules != 6 {
		t.Fatalf("schedules = %d, want 6", rep.Schedules)
	}
}

func TestExploreFindsInjectedBug(t *testing.T) {
	// A broken check: claim that the final counter is always 2 (only
	// true when the two increments do not race).
	build := func(obs memory.Observer) Run {
		w := memory.NewWordObserved(0, obs)
		op := func() {
			v := w.Read()
			w.CAS(v, v+1)
		}
		return Run{
			Ops: [][]func(){{op}, {op}},
			Check: func() error {
				if got := w.Read(); got != 2 {
					return fmt.Errorf("final = %d, want 2", got)
				}
				return nil
			},
		}
	}
	rep := Explore(build, Options{})
	if rep.Failure == nil {
		t.Fatal("exploration missed the interleaving where an increment is lost")
	}
	// The failing schedule must replay to the same failure.
	_, err := Replay(build, rep.Failure.Schedule, nil)
	if err == nil || !strings.Contains(err.Error(), "want 2") {
		t.Fatalf("replay of failing schedule: %v", err)
	}
}

// abaReplay returns the named entry of ABAReplays.
func abaReplay(t testing.TB, name string) ABAReplay {
	for _, r := range ABAReplays() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no ABA replay %q", name)
	return ABAReplay{}
}

// namedProgram returns the named entry of Programs.
func namedProgram(t testing.TB, name string) NamedProgram {
	for _, p := range Programs() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no program %q", name)
	return NamedProgram{}
}

// explore runs build exhaustively and fails t on a violation or an
// incomplete tree.
func explore(t *testing.T, what string, build Builder) Report {
	t.Helper()
	rep := Explore(build, Options{})
	if rep.Failure != nil {
		t.Fatalf("%s: %v\ntrace: %v", what, rep.Failure.Err, rep.Failure.Trace)
	}
	if !rep.Complete {
		t.Fatalf("%s: exploration incomplete after %d schedules", what, rep.Schedules)
	}
	return rep
}

func TestReplayIsDeterministic(t *testing.T) {
	r := abaReplay(t, "naive")
	var firstErr error
	for i := 0; i < 5; i++ {
		_, err := Replay(r.Build, r.Schedule, nil)
		if i == 0 {
			firstErr = err
			continue
		}
		if (err == nil) != (firstErr == nil) {
			t.Fatalf("replay %d differs: %v vs %v", i, err, firstErr)
		}
	}
}

func TestABAScheduleBreaksNaiveStack(t *testing.T) {
	// E8, deterministic half: the handcrafted §2.2 interleaving makes
	// the untagged stack return a non-linearizable history.
	r := abaReplay(t, "naive")
	trace, err := Replay(r.Build, r.Schedule, nil)
	if err == nil {
		t.Fatalf("ABA schedule did not break the naive stack (trace %v)", trace)
	}
	if !strings.Contains(err.Error(), "not linearizable") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}

func TestABAScheduleHarmlessOnTaggedStacks(t *testing.T) {
	// E8, control half: the same interleaving shape cannot hurt the
	// sequence-tagged backends — the stale CAS fails and the operation
	// aborts instead of corrupting the stack.
	for _, name := range []string{"boxed", "packed"} {
		r := abaReplay(t, name)
		trace, err := Replay(r.Build, r.Schedule, nil)
		if err != nil {
			t.Fatalf("%s backend failed under the ABA schedule: %v", name, err)
		}
		if len(trace) != len(r.Schedule) {
			t.Fatalf("%s: trace has %d steps, schedule %d (gate-count drift)", name, len(trace), len(r.Schedule))
		}
	}
}

func TestExhaustiveWeakStackTwoProcs(t *testing.T) {
	// Every interleaving of one weak push against one weak pop on a
	// small stack is linearizable, for both tagged backends.
	for _, name := range []string{"stack/boxed", "stack/packed"} {
		build := Program(Lookup(name, 2), []uint64{7}, [][]Op{{{opPush, 9}}, {{opPop, 0}}}, nil)
		rep := explore(t, name, build)
		t.Logf("%s: %d schedules, all linearizable", name, rep.Schedules)
	}
}

func TestExhaustiveWeakStackPopPop(t *testing.T) {
	// Two racing pops must never both return the same value.
	explore(t, "pop/pop race", Program(Lookup("stack/boxed", 2), []uint64{1, 2},
		[][]Op{{{opPop, 0}}, {{opPop, 0}}}, nil))
}

// exploreEnqDeq explores enqueue racing dequeue on capacities 1 and 2
// of the named queue.
func exploreEnqDeq(t *testing.T, name string) {
	for _, k := range []int{1, 2} {
		var initial []uint64
		if k == 2 {
			initial = []uint64{5}
		}
		explore(t, fmt.Sprintf("%s k=%d", name, k), Program(Lookup(name, k), initial,
			[][]Op{{{opPush, 9}}, {{opPop, 0}}}, nil))
	}
}

func TestExhaustiveWeakQueueTwoProcs(t *testing.T) { exploreEnqDeq(t, "queue/boxed") }

func TestExhaustiveWeakPackedQueueTwoProcs(t *testing.T) { exploreEnqDeq(t, "queue/packed") }

func TestExhaustiveWeakPackedQueueDeqDeq(t *testing.T) {
	explore(t, "deq/deq race", Program(Lookup("queue/packed", 2), []uint64{1, 2},
		[][]Op{{{opPop, 0}}, {{opPop, 0}}}, nil))
}

func TestExhaustiveWeakQueueEnqEnq(t *testing.T) {
	// Two racing enqueues on the last slot: exactly one may win; the
	// other aborts or reports full, never both succeeding.
	explore(t, "enq/enq race", Program(Lookup("queue/boxed", 1), nil,
		[][]Op{{{opPush, 1}}, {{opPush, 2}}}, nil))
}

// soloPlan crosses a capacity-2 stack's full and empty boundaries.
var soloPlan = []Op{{opPush, 1}, {opPush, 2}, {opPush, 3}, {opPop, 0}, {opPop, 0}, {opPop, 0}}

func TestSoloNeverAbortsModelChecked(t *testing.T) {
	// Claim A2 under the scheduler: a single process's weak ops never
	// abort, on every backend, including at the full/empty boundaries.
	for _, name := range []string{"stack/boxed", "stack/packed"} {
		rep := explore(t, name, Program(Lookup(name, 2), nil, [][]Op{soloPlan}, nil))
		if rep.Schedules != 1 {
			t.Fatalf("%s: solo run should have exactly 1 schedule, got %d", name, rep.Schedules)
		}
	}
}

func TestWalkSamplesWithoutFailure(t *testing.T) {
	build := Program(Lookup("stack/boxed", 3), []uint64{1},
		[][]Op{{{opPush, 2}, {opPop, 0}}, {{opPop, 0}, {opPush, 3}}}, nil)
	rep := Walk(build, 300, 42, Options{})
	if rep.Failure != nil {
		t.Fatalf("random walk found failure: %v", rep.Failure.Err)
	}
	if rep.Schedules != 300 {
		t.Fatalf("schedules = %d, want 300", rep.Schedules)
	}
}

func TestWalkFindsNaiveABAEventually(t *testing.T) {
	// E8, probabilistic half: random walks alone stumble on the ABA
	// interleaving of the naive stack.
	rep := Walk(namedProgram(t, "naive-aba").Build, 5000, 7, Options{})
	if rep.Failure == nil {
		t.Fatal("5000 random schedules never exhibited the ABA bug")
	}
}

func TestExploreRespectsScheduleBudget(t *testing.T) {
	var fails atomic.Int64
	rep := Explore(counterBuilder(&fails), Options{MaxSchedules: 2})
	if rep.Complete {
		t.Fatal("exploration claims completeness under a 2-schedule budget")
	}
	if rep.Schedules != 2 {
		t.Fatalf("schedules = %d, want 2", rep.Schedules)
	}
}

func TestStepBudgetCatchesSpinning(t *testing.T) {
	// An op that spins on a register forever must be caught by the
	// step budget rather than hanging the scheduler.
	build := func(obs memory.Observer) Run {
		w := memory.NewWordObserved(0, obs)
		spin := func() {
			for w.Read() != 1 {
			}
		}
		return Run{Ops: [][]func(){{spin}}}
	}
	rep := Explore(build, Options{MaxSteps: 50, MaxSchedules: 1})
	if rep.Failure == nil || !errors.Is(rep.Failure.Err, ErrStepBudget) {
		t.Fatalf("spinning op not caught: %+v", rep.Failure)
	}
}

// panicBuilder builds two processes over one register: process 1
// makes reads accesses and then panics, while process 0 writes it.
func panicBuilder(reads int) Builder {
	return func(obs memory.Observer) Run {
		w := memory.NewWordObserved(0, obs)
		return Run{Ops: [][]func(){
			{func() { w.Write(1) }},
			{func() {
				for range reads {
					w.Read()
				}
				panic("boom")
			}},
		}}
	}
}

// TestProcessPanicIsReported pins the panic path: a process that
// panics before its first scheduled access, or after some, makes Replay
// and Explore report it instead of hanging or running the check.
func TestProcessPanicIsReported(t *testing.T) {
	const want = "sched: process 1 panicked: boom"
	for _, reads := range []int{0, 2} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := Replay(panicBuilder(reads), nil, nil); err == nil || err.Error() != want {
				t.Errorf("reads=%d: Replay returned %v, want %q", reads, err, want)
			}
			rep := Explore(panicBuilder(reads), Options{})
			if rep.Failure == nil || rep.Failure.Err.Error() != want {
				t.Errorf("reads=%d: Explore failure %+v, want %q", reads, rep.Failure, want)
			}
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("reads=%d: run hung after a process panicked", reads)
		}
	}
}

func TestReplayRejectsBogusSchedule(t *testing.T) {
	build := Program(Lookup("stack/boxed", 2), nil, [][]Op{{{opPush, 1}}}, nil)
	_, err := Replay(build, []int{5}, nil) // pid 5 does not exist
	if err == nil || !strings.Contains(err.Error(), "non-deterministic replay") {
		t.Fatalf("bogus schedule not rejected: %v", err)
	}
}

// TestTargetNames pins the target table's names: each is
// "<kind>/<variant>", unique, of a kind Kinds describes, and Lookup
// resolves it, taking k only on a bounded target.
func TestTargetNames(t *testing.T) {
	seen := map[string]bool{}
	for _, tgt := range targets {
		kind, _, _ := strings.Cut(tgt.Name, "/")
		if kind != tgt.Kind || seen[tgt.Name] {
			t.Fatalf("target %q: kind %q, duplicate %v", tgt.Name, tgt.Kind, seen[tgt.Name])
		}
		seen[tgt.Name] = true
		if _, ok := Kinds[tgt.Kind]; !ok {
			t.Fatalf("target %q: kind %q has no KindSpec", tgt.Name, tgt.Kind)
		}
		want := 0
		if tgt.K != 0 {
			want = 3
		}
		if got := Lookup(tgt.Name, 3); got.Name != tgt.Name || got.K != want {
			t.Fatalf("Lookup(%q, 3) = %q at K=%d, want K=%d", tgt.Name, got.Name, got.K, want)
		}
	}
}

// kindVariants checks that the target table's entries of kind are
// exactly the named variants, each reachable as "<kind>/<variant>".
func kindVariants(t *testing.T, kind string, variants ...string) {
	t.Helper()
	want := map[string]bool{}
	for _, v := range variants {
		want[kind+"/"+v] = true
		if got := Lookup(kind+"/"+v, 3).Name; got != kind+"/"+v {
			t.Fatalf("Lookup(%q) = %q", kind+"/"+v, got)
		}
	}
	for _, tgt := range targets {
		if tgt.Kind == kind && !want[tgt.Name] {
			t.Fatalf("%s target %q not in %v", kind, tgt.Name, variants)
		}
	}
}

// TestBackendString pins the stack targets' names and that an unknown
// name is refused rather than resolved to some default.
func TestBackendString(t *testing.T) {
	kindVariants(t, "stack", "boxed", "packed", "naive", "pooled-treiber", "combining")
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unknown target") {
			t.Fatalf("unknown target not refused: %v", r)
		}
	}()
	Lookup("stack/unknown", 3)
}

// TestSoloAbortFailsProgram pins claim A2's check: a one-process
// program fails when an op aborts, which a two-process one may.
func TestSoloAbortFailsProgram(t *testing.T) {
	aborting := Target{Name: "stack/aborting", Kind: "stack", Weak: true,
		Build: func(_, _ int, _ memory.Observer) repro.Ops {
			return PushPop(nil, func(int, uint64) error { return stack.ErrAborted },
				func(int) (uint64, error) { return 0, stack.ErrAborted })
		}}
	if _, err := Replay(Program(aborting, nil, [][]Op{{{opPush, 1}}}, nil), nil, nil); err == nil ||
		!strings.Contains(err.Error(), "solo weak operation(s) aborted") {
		t.Fatalf("solo abort not reported: %v", err)
	}
	if _, err := Replay(Program(aborting, nil, [][]Op{{{opPush, 1}}, nil}, nil), nil, nil); err != nil {
		t.Fatalf("two-process abort rejected: %v", err)
	}
}

// TestProgramScheduleCounts pins every named program's schedule tree:
// a drift in any target's gate count, or in the explorer, changes a
// count here. The naive stack must fail, at its 13th schedule; the
// walk-only hash split is sampled instead.
func TestProgramScheduleCounts(t *testing.T) {
	want := map[string]int{
		"stack-pushpop":         210,
		"stack-pushpop-packed":  252,
		"stack-popper-race":     210,
		"stack-3way":            352944,
		"queue-enqdeq":          56,
		"queue-enqenq":          92,
		"deque-opposite-ends":   9132,
		"deque-singleton-races": 8778,
		"set-add-remove":        6,
		"harris-window-race":    4022,
		"naive-aba":             13,
	}
	for _, p := range Programs() {
		switch {
		case p.WalkOnly:
			if rep := Walk(p.Build, 10_000, 0x5b117, Options{}); rep.Failure != nil {
				t.Errorf("%s: walk found %v (schedule %v)", p.Name, rep.Failure.Err, rep.Failure.Schedule)
			}
			continue
		case p.Name == "stack-3way" && testing.Short():
			continue // 352,944 schedules: about 12 s, about a minute under -race
		}
		rep := Explore(p.Build, Options{MaxSchedules: 2_000_000})
		if (rep.Failure != nil) != p.ExpectFail {
			t.Errorf("%s: failure %v, expected one: %v", p.Name, rep.Failure, p.ExpectFail)
		}
		if !p.ExpectFail && !rep.Complete {
			t.Errorf("%s: tree incomplete after %d schedules", p.Name, rep.Schedules)
		}
		if rep.Schedules != want[p.Name] {
			t.Errorf("%s: %d schedules, want %d", p.Name, rep.Schedules, want[p.Name])
		}
	}
}

// BenchmarkExplore reports the explorer's throughput on two fixed
// programs: every scheduled access pays a gate handoff (an event send
// and a grant receive), and every schedule a fresh build, one
// goroutine per process, and a linearizability check.
func BenchmarkExplore(b *testing.B) {
	for _, name := range []string{"stack-3way", "hash-split-race"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			build := namedProgram(b, name).Build
			schedules := 0
			start := time.Now()
			for b.Loop() {
				schedules += Explore(build, Options{MaxSchedules: 100}).Schedules
			}
			b.ReportMetric(float64(schedules)/time.Since(start).Seconds(), "schedules/s")
		})
	}
}
