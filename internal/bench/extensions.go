package bench

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/lock"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Lamport's fast mutex [16]: seven accesses contention-free (§1.2)",
		Claim: "in a contention-free context a process executes only seven shared-memory accesses to enter (and leave) the critical section, independent of n; under contention the cost depends on n",
		Run:   runE12,
	})
	register(Experiment{
		ID:    "E13",
		Title: "crash tolerance of the lock-free parts (§5)",
		Claim: "the algorithms still work despite process crashes if no process crashes while holding the lock: crash a weak push at every possible point and the survivor completes every operation on a consistent stack",
		Run:   runE13,
	})
}

func runE12(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()

	// Solo cost, for growing n: the defining property is that the
	// count is 7 regardless of n.
	tb := metrics.NewTable("n", "entry accesses", "entry+exit", "paper", "verdict")
	defer cfg.logTable("E12 entry cost", tb)
	for _, n := range []int{1, 2, 8, 64, 512} {
		var st memory.Stats
		l := lock.NewFastMutexObserved(n, &st)
		l.Acquire(n - 1)
		entry := st.Total()
		l.Release(n - 1)
		total := st.Total()
		verdict := "pass"
		if total != 7 {
			verdict = "FAIL"
		}
		tb.AddRow(n, entry, total, 7, verdict)
		if total != 7 {
			fprintf(w, "%s", tb.String())
			return fmt.Errorf("E12: solo fast-mutex cycle = %d accesses, want 7", total)
		}
	}
	if err := fprintf(w, "%s\n", tb.String()); err != nil {
		return err
	}

	// Contended cost: mean accesses per critical section as
	// contention grows (the paper: "depends on the number of
	// processes and the actual concurrency pattern").
	tb2 := metrics.NewTable("procs", "sections", "mean accesses/section")
	defer cfg.logTable("E12 sections", tb2)
	for _, procs := range procSteps(cfg.Procs) {
		var st memory.Stats
		l := lock.NewFastMutexObserved(procs, &st)
		counts, _ := hammer(procs, cfg.Duration/2, cfg.Seed, repro.Ops{N: 2, Do: func(pid, _ int, _ uint64) (uint64, error) {
			l.Acquire(pid)
			l.Release(pid)
			return 0, nil
		}})
		sections := metrics.Sum(counts)
		tb2.AddRow(procs, sections, float64(st.Total())/float64(max(sections, 1)))
	}
	return fprintf(w, "%s", tb2.String())
}

func runE13(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("backend", "crash point (accesses into weak_push)", "survivor ops", "verdict")
	defer cfg.logTable("E13 crash survival", tb)
	survivor := []sched.Op{{V: 100}, {Code: 1}, {Code: 1}, {Code: 1}, {Code: 1}} // push 100, pop ×4
	for _, name := range []string{"boxed", "packed"} {
		// Process 0 pushes 77 and is crashed by the plan; process 1
		// runs survivor.
		build := sched.Program(sched.Lookup("stack/"+name, 8), []uint64{10, 20},
			[][]sched.Op{{{V: 77}}, survivor}, nil)
		for crashAt := 0; crashAt <= 5; crashAt++ {
			schedule := make([]int, crashAt)
			_, err := sched.Replay(build, schedule, sched.CrashPlan{0: crashAt})
			verdict := "survivor consistent, all ops complete"
			if err != nil {
				verdict = "FAIL: " + err.Error()
			}
			tb.AddRow(name, crashAt, len(survivor), verdict)
			if err != nil {
				fprintf(w, "%s", tb.String())
				return fmt.Errorf("E13: %v crashAt=%d: %v", name, crashAt, err)
			}
		}
	}
	if err := fprintf(w, "%s", tb.String()); err != nil {
		return err
	}
	return fprintf(w, "note: the slow-path lock is the only crash-vulnerable window (§5); the weak operations themselves tolerate a crash at every point\n")
}
