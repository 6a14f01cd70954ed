// Command lincheck records concurrent histories of the stack, queue,
// deque, and set implementations and checks them for linearizability
// (the paper's safety condition, §1.1) against sequential models.
//
// The target set is not maintained here: every backend in
// repro.Catalog() is checked through repro.Drive (via internal/bench's
// catalog-driven LinTargets, run by bench.RunLin), plus the
// internal-only packed/pooled variants the catalog does not export.
// A backend added to the catalog is picked up automatically.
//
// Usage:
//
//	lincheck [-impl all|<name from -listimpls>] [-procs N] [-rounds R] [-ops K] [-seeds S]
//	lincheck -crash
//
// Histories are recorded in bursts with quiescent joins so the
// segmented Wing&Gong checker stays exact. Exit status 1 means a
// violation was found.
//
// -crash switches to the deterministic §5 crash-plan mode: instead of
// timing-driven recordings, the internal/sched engine replays runs in
// which one process is crashed at every numbered shared access of its
// operation (the crash plans are replayable values, like the ABA
// schedules). The crashed operation is treated as pending — the
// history must linearize either without it or with some completion of
// it taking effect — and the flat-combining sweep additionally covers
// crashes with the combiner lease held, which the survivors must
// recover from by stealing the lease.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func main() {
	var (
		impl   = flag.String("impl", "all", "implementation name (see -listimpls) or 'all'")
		procs  = flag.Int("procs", 4, "recording processes")
		rounds = flag.Int("rounds", 60, "bursts per seed")
		ops    = flag.Int("ops", 4, "operations per process per burst")
		seeds  = flag.Int("seeds", 4, "independent seeded runs per implementation")
		listI  = flag.Bool("listimpls", false, "list implementations and exit")
		crash  = flag.Bool("crash", false, "deterministic crash-plan sweeps (crashed ops pending)")
	)
	flag.Parse()

	if *crash {
		if err := runCrashSweeps(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lincheck -crash: %v\n", err)
			os.Exit(1)
		}
		return
	}

	targets := bench.LinTargets()
	if *listI {
		for _, t := range targets {
			fmt.Println(t.Name)
		}
		return
	}

	violations := 0
	tb := metrics.NewTable("implementation", "seed", "ops checked", "aborts dropped", "states", "verdict")
	for _, tgt := range targets {
		if *impl != "all" && *impl != tgt.Name {
			continue
		}
		for seed := 1; seed <= *seeds; seed++ {
			n, aborts, res := bench.RunLin(tgt, *procs, *rounds, *ops, uint64(seed)*0x9e37)
			tb.AddRow(tgt.Name, seed, n, aborts, res.States, bench.LinVerdict(res))
			if !res.Ok && !res.Exhausted {
				violations++
				fmt.Fprintf(os.Stderr, "violation in %s (seed %d); offending segment:\n", tgt.Name, seed)
				for _, op := range res.FailedSegment {
					fmt.Fprintf(os.Stderr, "  %v\n", op)
				}
			}
		}
	}
	fmt.Print(tb.String())
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "lincheck: %d violation(s)\n", violations)
		os.Exit(1)
	}
}

// runCrashSweeps is the -crash mode: deterministic crash plans over
// the model-checked backends, every crash point of a single push and
// a single pop, plus the flat-combining lease-held crashes.
func runCrashSweeps(w *os.File) error {
	tb := metrics.NewTable("target", "crashed op", "crash points", "verdict")
	survivor := []sched.StackOp{{Push: true, Value: 100}, {}, {}, {}}
	const points = 8
	for _, backend := range []sched.StackBackend{sched.Boxed, sched.PackedWords, sched.PooledTreiber, sched.PooledAbortable} {
		for _, op := range []sched.StackOp{{Push: true, Value: 77}, {}} {
			name := "pop"
			if op.Push {
				name = "push"
			}
			err := sched.SweepCrashPoints(points, func(crashAt int) (sched.Builder, sched.CrashPlan) {
				return sched.CrashStackOp(backend, 8, []uint64{10, 20}, op, crashAt, survivor)
			})
			if err != nil {
				fmt.Fprint(w, tb.String())
				return fmt.Errorf("%v crashed %s: %v", backend, name, err)
			}
			tb.AddRow(backend.String(), name, points+1, "linearizable (crashed op pending)")
		}
	}

	// Flat combining: the combiner dies at every gate of its
	// contended push — lease acquisition, CONTENTION raise, mid-
	// apply, release — and the survivor must steal the lease.
	err := sched.SweepCrashPoints(sched.CombiningCrashGates, func(crashAt int) (sched.Builder, sched.CrashPlan) {
		return sched.CombiningCrashBuilder(false), sched.CrashPlan{0: crashAt}
	})
	if err != nil {
		fmt.Fprint(w, tb.String())
		return fmt.Errorf("combining crash sweep: %v", err)
	}
	tb.AddRow("stack/combining", "push (combiner)", sched.CombiningCrashGates+1, "linearizable (crashed op pending)")

	build, schedule, plan := sched.CombiningTakeoverSchedule()
	if _, err := sched.ReplayWithCrashes(build, schedule, plan, 0); err != nil {
		fmt.Fprint(w, tb.String())
		return fmt.Errorf("pinned takeover replay: %v", err)
	}
	tb.AddRow("stack/combining", "push (lease-held, pinned)", 1, "lease stolen, linearizable")

	// Adaptive set: the migrator dies at every gate of its cow→harris
	// window — before the open, between open and seal, mid-rebuild, at
	// the close — and the survivor must finish with nothing stranded.
	if err := sched.SweepCrashPoints(sched.AdaptiveMigrationGates+1, sched.CrashAdaptiveMigration); err != nil {
		fmt.Fprint(w, tb.String())
		return fmt.Errorf("adaptive migration crash sweep: %v", err)
	}
	tb.AddRow("set/adaptive", "morph (migrator)", sched.AdaptiveMigrationGates+2, "survivors complete, linearizable")

	mbuild, msched := sched.AdaptiveMigrationSchedule()
	if _, err := sched.Replay(mbuild, msched, 0); err != nil {
		fmt.Fprint(w, tb.String())
		return fmt.Errorf("pinned migration replay: %v", err)
	}
	tb.AddRow("set/adaptive", "add (parked across flip, pinned)", 1, "stale CAS fails, re-dispatched")

	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "crash plans are replayable values: (pid -> granted shared accesses before the crash)")
	return nil
}
