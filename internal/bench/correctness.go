package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/lock"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "contention-free step complexity (Theorem 1)",
		Claim: "a contention-free strong push/pop uses no lock and exactly 6 shared accesses (1 CONTENTION read + 5 in the weak op); full/empty cost 4; weak ops alone cost 5",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "solo weak operations never abort (abortability ⇒ obstruction-freedom)",
		Claim: "an operation executed in a concurrency-free context always returns a non-⊥ value",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E8",
		Title: "the ABA problem (§2.2): untagged CAS corrupts, sequence tags do not",
		Claim: "without tags a stale CAS can succeed after the register returns to an old value, popping a value twice and losing another; the §2.2 tags make the stale CAS fail",
		Run:   runE8,
	})
}

// measureStrongOp runs a single solo strong op and returns the access
// delta and whether the slow path was entered.
func runE1(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("backend", "operation", "reads", "writes", "cas", "total", "paper", "lock taken")
	defer cfg.logTable("E1 access counts", tb)

	type probe struct {
		backend string
		op      string
		run     func() (memory.Snapshot, uint64) // access delta, slow-path count
		paper   int
	}
	var probes []probe

	// Boxed backend, full lifecycle: push, pop, push-on-full,
	// pop-on-empty. A fresh stack per probe keeps the help state
	// identical to the paper's per-operation accounting.
	mkBoxed := func(prefill int, op func(s *stack.Sensitive[uint64]) error) func() (memory.Snapshot, uint64) {
		return func() (memory.Snapshot, uint64) {
			var st memory.Stats
			s := stack.NewSensitiveObserved[uint64](2, 2, &st)
			for i := 0; i < prefill; i++ {
				if err := s.Push(0, uint64(i)); err != nil {
					panic(err)
				}
			}
			before := st.Snapshot()
			if err := op(s); err != nil {
				panic(err)
			}
			return st.Snapshot().Sub(before), s.Guard().Stats().Slow
		}
	}
	mkPacked := func(prefill int, op func(s *stack.Sensitive[uint32]) error) func() (memory.Snapshot, uint64) {
		return func() (memory.Snapshot, uint64) {
			var st memory.Stats
			weak := stack.NewPackedObserved(2, &st)
			s := stack.NewSensitiveFrom[uint32](weak, lock.NewFigure3(2), &st)
			for i := 0; i < prefill; i++ {
				if err := s.Push(0, uint32(i)); err != nil {
					panic(err)
				}
			}
			before := st.Snapshot()
			if err := op(s); err != nil {
				panic(err)
			}
			return st.Snapshot().Sub(before), s.Guard().Stats().Slow
		}
	}
	okOrSentinel := func(err error, sentinel error) error {
		if err == nil || errors.Is(err, sentinel) {
			return nil
		}
		return err
	}

	probes = append(probes,
		probe{"boxed", "strong_push", mkBoxed(1, func(s *stack.Sensitive[uint64]) error { return s.Push(0, 9) }), 6},
		probe{"boxed", "strong_pop", mkBoxed(1, func(s *stack.Sensitive[uint64]) error { _, err := s.Pop(0); return err }), 6},
		probe{"boxed", "push→full", mkBoxed(2, func(s *stack.Sensitive[uint64]) error { return okOrSentinel(s.Push(0, 9), stack.ErrFull) }), 4},
		probe{"boxed", "pop→empty", mkBoxed(0, func(s *stack.Sensitive[uint64]) error { _, err := s.Pop(0); return okOrSentinel(err, stack.ErrEmpty) }), 4},
		probe{"packed", "strong_push", mkPacked(1, func(s *stack.Sensitive[uint32]) error { return s.Push(0, 9) }), 6},
		probe{"packed", "strong_pop", mkPacked(1, func(s *stack.Sensitive[uint32]) error { _, err := s.Pop(0); return err }), 6},
	)

	// Weak operations alone (5 accesses, the §3 count).
	probes = append(probes, probe{"boxed", "weak_push", func() (memory.Snapshot, uint64) {
		var st memory.Stats
		s := stack.NewAbortableObserved[uint64](2, 1, &st)
		if err := s.TryPush(0, 1); err != nil {
			panic(err)
		}
		return st.Snapshot(), 0
	}, 5})
	probes = append(probes, probe{"packed", "weak_pop", func() (memory.Snapshot, uint64) {
		var st memory.Stats
		s := stack.NewPackedObserved(2, &st)
		if err := s.TryPush(0, 1); err != nil {
			panic(err)
		}
		before := st.Snapshot()
		if _, err := s.TryPop(0); err != nil {
			panic(err)
		}
		return st.Snapshot().Sub(before), 0
	}, 5})

	ok := true
	for _, p := range probes {
		delta, slow := p.run()
		lockTaken := "no"
		if slow > 0 {
			lockTaken = "YES"
			ok = false
		}
		if int(delta.Total()) != p.paper {
			ok = false
		}
		tb.AddRow(p.backend, p.op, delta.Reads, delta.Writes, delta.CASes, delta.Total(), p.paper, lockTaken)
	}
	if err := fprintf(w, "%s", tb.String()); err != nil {
		return err
	}
	if !ok {
		return errors.New("E1: measured access counts deviate from Theorem 1")
	}
	return fprintf(w, "verdict: measured == paper for all rows; lock never taken solo\n")
}

func runE2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("backend", "method", "ops", "aborts", "verdict")
	defer cfg.logTable("E2 solo aborts", tb)

	// Exhaustive half: every schedule of a solo process (there is
	// exactly one) across the full/empty boundaries.
	plan := []sched.StackOp{
		{Push: true, Value: 1}, {Push: true, Value: 2}, {Push: true, Value: 3},
		{Push: false}, {Push: false}, {Push: false},
	}
	for _, backend := range []sched.StackBackend{sched.Boxed, sched.PackedWords} {
		rep := sched.Explore(sched.SoloNeverAborts(backend, 2, nil, plan), sched.Options{})
		verdict := "pass"
		if rep.Failure != nil {
			verdict = "FAIL: " + rep.Failure.Err.Error()
		}
		tb.AddRow(backend.String(), "model-checked", len(plan), 0, verdict)
		if rep.Failure != nil {
			fprintf(w, "%s", tb.String())
			return fmt.Errorf("E2: %v", rep.Failure.Err)
		}
	}

	// Statistical half: long random solo runs on the live backends.
	ops := 200000
	if cfg.Quick {
		ops = 5000
	}
	for _, backend := range []string{"boxed", "packed"} {
		var tryPush func(v uint64) error
		var tryPop func() (uint64, error)
		if backend == "boxed" {
			s := stack.NewAbortable[uint64](16, 1)
			tryPush = func(v uint64) error { return s.TryPush(0, v) }
			tryPop = func() (uint64, error) { return s.TryPop(0) }
		} else {
			s := stack.NewPacked(16)
			tryPush = func(v uint64) error { return s.TryPush(0, uint32(v)) }
			tryPop = func() (uint64, error) { v, err := s.TryPop(0); return uint64(v), err }
		}
		rng := workload.NewRNG(cfg.Seed)
		aborts := 0
		for i := 0; i < ops; i++ {
			var err error
			if workload.Balanced.NextIsPush(rng) {
				err = tryPush(uint64(i))
			} else {
				_, err = tryPop()
			}
			if errors.Is(err, stack.ErrAborted) {
				aborts++
			}
		}
		verdict := "pass"
		if aborts > 0 {
			verdict = "FAIL"
		}
		tb.AddRow(backend, "random solo run", ops, aborts, verdict)
		if aborts > 0 {
			fprintf(w, "%s", tb.String())
			return fmt.Errorf("E2: %d solo aborts on %s", aborts, backend)
		}
	}
	return fprintf(w, "%s", tb.String())
}

func runE8(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("backend", "schedule", "outcome", "verdict")
	defer cfg.logTable("E8 ABA outcomes", tb)

	// Deterministic half: the handcrafted §2.2 interleaving.
	for _, backend := range []sched.StackBackend{sched.NaiveABA, sched.Boxed, sched.PackedWords} {
		build, schedule := sched.ABASchedule(backend)
		_, err := sched.Replay(build, schedule, 0)
		switch backend {
		case sched.NaiveABA:
			if err == nil {
				fprintf(w, "%s", tb.String())
				return errors.New("E8: the ABA schedule failed to break the naive stack")
			}
			tb.AddRow(backend.String(), "handcrafted ABA", "corrupted (pop repeated, push lost)", "reproduces §2.2")
		default:
			if err != nil {
				fprintf(w, "%s", tb.String())
				return fmt.Errorf("E8: tagged backend %v corrupted: %v", backend, err)
			}
			tb.AddRow(backend.String(), "handcrafted ABA", "stale CAS failed; history linearizable", "tags prevent ABA")
		}
	}

	// Pooled half: on the recycled-node backends the §2.2 window is
	// forced deterministically — a node is retired, recycled, and back
	// at the register when the stale CAS fires — and the tag must make
	// that CAS fail (the builders also assert reuse really occurred).
	for _, tc := range []struct {
		name    string
		sched   func() (sched.Builder, []int)
		outcome string
	}{
		{"pooled-treiber", sched.PooledTreiberABASchedule,
			"node recycled to same handle; stale CAS failed"},
		{"pooled-ms-queue", sched.PooledMSABASchedule,
			"dummy recycled, head returned to old handle; stale CAS failed"},
	} {
		build, schedule := tc.sched()
		if _, err := sched.Replay(build, schedule, 0); err != nil {
			fprintf(w, "%s", tb.String())
			return fmt.Errorf("E8: pooled backend %s corrupted: %v", tc.name, err)
		}
		tb.AddRow(tc.name, "forced recycle", tc.outcome, "tags prevent reuse ABA")
	}

	// Random-walk half for the pooled Figure 1 stack: the validated
	// snapshots plus tags must keep every explored interleaving
	// linearizable despite record recycling.
	pooledRuns := 800
	if cfg.Quick {
		pooledRuns = 200
	}
	pooledBuild := sched.WeakStackBuilder(sched.PooledAbortable, 4, []uint64{10, 20},
		[][]sched.StackOp{
			{{Push: false}, {Push: true, Value: 30}},
			{{Push: false}, {Push: false}, {Push: true, Value: 40}},
		})
	if rep := sched.Walk(pooledBuild, pooledRuns, cfg.Seed, sched.Options{}); rep.Failure != nil {
		fprintf(w, "%s", tb.String())
		return fmt.Errorf("E8: pooled-abortable violated linearizability: %v", rep.Failure.Err)
	}
	tb.AddRow("pooled-abortable", fmt.Sprintf("%d random schedules", pooledRuns),
		"all histories linearizable", "tags prevent reuse ABA")

	// Search half: random schedules rediscover the bug unaided.
	runs := 5000
	if cfg.Quick {
		runs = 800
	}
	build := sched.WeakStackBuilder(sched.NaiveABA, 4, []uint64{10, 20},
		[][]sched.StackOp{
			{{Push: false}},
			{{Push: false}, {Push: false}, {Push: true, Value: 30}, {Push: true, Value: 40}},
		})
	rep := sched.Walk(build, runs, cfg.Seed, sched.Options{})
	if rep.Failure == nil {
		tb.AddRow("naive", fmt.Sprintf("%d random schedules", rep.Schedules), "no violation found", "(search too small)")
	} else {
		tb.AddRow("naive", fmt.Sprintf("random search, run %d", rep.Schedules), "violation found", "reproduces §2.2")
	}
	if err := fprintf(w, "%s", tb.String()); err != nil {
		return err
	}
	if rep.Failure != nil {
		return fprintf(w, "first failing schedule (pids): %v\n", rep.Failure.Schedule)
	}
	return nil
}
