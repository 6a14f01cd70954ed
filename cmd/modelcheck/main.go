// Command modelcheck drives the deterministic scheduler over the weak
// stack/queue/set implementations: exhaustive interleaving enumeration
// for small configurations, random schedule sampling for larger ones,
// and the deterministic ABA reproductions of §2.2 (register, pooled,
// and recycled-list-node variants).
//
// Usage:
//
//	modelcheck -mode exhaustive -target stack-pushpop
//	modelcheck -mode walk -target naive-aba -runs 20000
//	modelcheck -mode aba
//
// The targets are internal/sched's named programs (sched.Programs) and
// its pinned ABA schedules (sched.ABAReplays), both over its table of
// observed backends — deterministic instrumented variants, distinct
// from the public repro.Catalog() surface that cmd/lincheck and the
// lockstep fuzzers enumerate. Exit status 1 means a violation was
// found on a target that is supposed to be correct; the naive targets
// are *expected* to fail and report success when they do. A walk-only
// target refuses -mode exhaustive (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sched"
)

func main() {
	var (
		mode   = flag.String("mode", "exhaustive", "exhaustive | walk | aba")
		name   = flag.String("target", "stack-pushpop", "target name (see -list)")
		runs   = flag.Int("runs", 10000, "random schedules in walk mode")
		seed   = flag.Uint64("seed", 1, "walk seed")
		maxSch = flag.Int("maxschedules", 2_000_000, "exhaustive-mode schedule budget")
		listT  = flag.Bool("list", false, "list targets and exit")
	)
	flag.Parse()

	if *listT {
		for _, p := range sched.Programs() {
			fmt.Printf("%-22s %s\n", p.Name, p.Description)
		}
		return
	}

	if *mode == "aba" {
		runABA()
		return
	}

	var prog *sched.NamedProgram
	for _, p := range sched.Programs() {
		if p.Name == *name {
			prog = &p
			break
		}
	}
	if prog == nil {
		fmt.Fprintf(os.Stderr, "modelcheck: unknown target %q (use -list)\n", *name)
		os.Exit(2)
	}

	var rep sched.Report
	switch *mode {
	case "exhaustive":
		if prog.WalkOnly {
			fmt.Fprintf(os.Stderr, "modelcheck: target %q's schedule tree does not fit an exhaustive budget; use -mode walk\n", prog.Name)
			os.Exit(2)
		}
		rep = sched.Explore(prog.Build, sched.Options{MaxSchedules: *maxSch})
	case "walk":
		rep = sched.Walk(prog.Build, *runs, *seed, sched.Options{})
	default:
		fmt.Fprintf(os.Stderr, "modelcheck: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	fmt.Printf("target:    %s (%s)\n", prog.Name, prog.Description)
	fmt.Printf("mode:      %s\n", *mode)
	fmt.Printf("schedules: %d (complete tree: %v)\n", rep.Schedules, rep.Complete)
	if rep.Failure == nil {
		fmt.Println("result:    no violation found")
		if prog.ExpectFail {
			fmt.Println("note:      this target is expected to fail; increase -runs")
			os.Exit(1)
		}
		return
	}
	fmt.Printf("result:    VIOLATION\n  error:    %v\n  schedule: %v\n  trace:\n", rep.Failure.Err, rep.Failure.Schedule)
	for i, st := range rep.Failure.Trace {
		fmt.Printf("    %3d: p%d %s\n", i, st.Pid, st.Access)
	}
	if prog.ExpectFail {
		fmt.Println("verdict:   expected failure reproduced (the §2.2 ABA problem)")
		return
	}
	os.Exit(1)
}

// runABA replays the handcrafted §2.2 interleaving on the register
// backends, then the forced-recycle schedules on the pooled backends
// where a retired node is back at the register when the stale CAS
// fires (experiment E8's deterministic half).
func runABA() {
	for _, r := range sched.ABAReplays() {
		trace, err := sched.Replay(r.Build, r.Schedule, nil)
		fmt.Printf("backend %-16s: ", r.Name)
		switch {
		case err != nil:
			fmt.Printf("CORRUPTED — %v\n", err)
		case r.Recycles:
			fmt.Printf("survived forced node recycling (%d scheduled accesses)\n", len(trace))
		default:
			fmt.Printf("survived the ABA interleaving (%d scheduled accesses)\n", len(trace))
		}
		if r.Corrupts != (err != nil) {
			fmt.Fprintf(os.Stderr, "modelcheck: backend %s: corrupted %v, expected %v\n", r.Name, err != nil, r.Corrupts)
			os.Exit(1)
		}
	}
	fmt.Println("verdict: sequence tags (§2.2) are necessary and sufficient on these schedules")
}
