package bench

import (
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E22",
		Title: "crash injection: §5 mid-operation crashes and combiner kills over every applicable backend",
		Claim: "crash tolerance is a property of the implementation, not the object: lock-free backends keep survivor progress with a crashed process's request at worst leaked (survivor-safe); flat combining survives even a combiner killed with the lease held, via the heartbeat lease takeover, recovering within the lease budget (lease-takeover); the Figure 3 lock family would wedge on an in-lock crash and is classified, not crashed (lock-vulnerable)",
		Gate:  "cmd/slogate -exp E22",
		Run:   runE22,
	})
}

// e22Caption names the table cmd/slogate looks up in the -json
// document; scenario.CrashRow's col tags are its column schema.
const e22Caption = "E22 crash suite"

func runE22(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	reruns, scale := 3, 1.0
	if cfg.Quick {
		reruns, scale = 2, 0.02
	}

	// Part 1: the pinned deterministic takeover replay — the combining
	// sibling of the ABA replays. The combiner is crashed at the exact
	// gate where it holds the lease with CONTENTION raised and a
	// foreign request accepted but unserved; the survivor must steal
	// the lease (the builder asserts Steals >= 1) and linearize.
	build, schedule, plan := sched.CombiningTakeoverSchedule()
	if _, err := sched.Replay(build, schedule, plan); err != nil {
		return fmt.Errorf("E22: pinned combiner-crash takeover replay: %v", err)
	}
	if err := fprintf(w, "pinned takeover replay: combiner crashed lease-held at gate %d; survivor stole the lease and the history linearized\n",
		len(schedule)); err != nil {
		return err
	}

	// Part 2: exhaustive crash-point sweep — the combiner dies at
	// every shared access of its contended push (lease acquisition,
	// CONTENTION raise, mid-apply, between slots, release) and the
	// survivor must always complete with a linearizable history.
	if err := sched.SweepCrashPoints(sched.CombiningCrashGates, sched.CombiningCrashBuilder(false)); err != nil {
		return fmt.Errorf("E22: combining crash-point sweep: %v", err)
	}
	if err := fprintf(w, "crash-point sweep: combiner crashed at each of %d gates, survivor linearized at every point\n",
		sched.CombiningCrashGates+1); err != nil {
		return err
	}

	// Part 3: the crash scenario suite over every applicable backend —
	// mid-operation crashes (abandoned requests), armed combiner kills,
	// and a half-fleet crash storm. The rows feed cmd/slogate's E22
	// gates: survivor progress, recovery latency, the conservation
	// bracket, and the catalog's Robustness classification.
	var rows []scenario.CrashRow
	violations, stalls := 0, 0
	cells := 0
	for _, sc := range scenario.CrashLibrary() {
		// The scenario's own seed keeps streams stable across hosts;
		// a caller-chosen seed shifts every scenario deterministically.
		if cfg.Seed != 0x5eed {
			sc.Seed += cfg.Seed
		}
		for _, b := range repro.Catalog() {
			if !sc.AppliesTo(b.Kind) {
				continue
			}
			cells++
			for rerun := 0; rerun < reruns; rerun++ {
				res := scenario.Run(b, sc, scenario.Options{Scale: scale})
				conserved := "ok"
				if res.Conserved != nil {
					conserved = fmt.Sprintf("FAIL: %v", res.Conserved)
					violations++
				}
				if res.SurvivorOps == 0 {
					stalls++
				}
				rows = append(rows, scenario.CrashRow{Scenario: sc.Name, Backend: b.Name,
					Rerun: rerun, Procs: res.Procs, Ops: res.Ops, OKOps: res.OKOps,
					Abandoned: res.Abandoned, OpsPerSec: res.OpsPerSec(),
					SurvivorOps: res.SurvivorOps, Recovery: time.Duration(res.RecoveryNS),
					Conserved: conserved, Robustness: b.Robustness})
			}
		}
	}

	tb := metrics.TableOf(rows)
	cfg.logTable(e22Caption, tb)
	if err := fprintf(w, "%d crash scenarios x applicable backends (%d cells) x %d reruns, op-budget scale %.2f\n%s",
		len(scenario.CrashLibrary()), cells, reruns, scale, tb.String()); err != nil {
		return err
	}
	if err := fprintf(w, "note: abandoned ops may or may not take effect, so conservation is a bracket; recovery-ns is the worst process's crash-to-first-completed-op latency; gates are applied by cmd/slogate over the -json rows\n"); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("E22: %d crash run(s) violated the conservation bracket", violations)
	}
	if stalls > 0 {
		return fmt.Errorf("E22: %d crash run(s) made no survivor progress after the crash", stalls)
	}
	return nil
}
