package bench

import (
	"fmt"
	"io"
	"runtime"

	"repro"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E23",
		Title: "contention-adaptive meta-backends: phase-shifting workloads over the adaptive ladders vs their fixed rungs",
		Claim: "no single rung wins every regime (E15/E16/E18 crossovers), but an object that MIGRATES between rungs as live contention and size signals cross the measured boundaries tracks the best fixed rung in every phase — within slack — while the epoch-gated handoff stays linearizable under a writer parked across the flip and under a migrator crashed at every gate of its window",
		Gate:  "cmd/slogate -exp E23",
		Run:   runE23,
	})
}

// e23Caption names the table cmd/slogate looks up in the -json
// document; scenario.AdaptiveRow's col tags are its column schema.
const e23Caption = "E23 adaptive suite"

// e23SmokeThresholds replaces DefaultThresholds in -quick runs and on
// hosts with fewer than 4 CPUs. In -quick, op-budget scale 0.02 gives
// each pid only dozens of ops, which never fills the default 256-op
// per-pid decision window — automatic adaptation would silently be
// off and the migration-sanity gate would (correctly) fail. On a
// small host the default contention signals themselves are
// unreachable at any budget: goroutines run in sequential bursts, so
// a decision observes at most two active pids (the decider plus one
// residual at a burst boundary) and the contended counters sit near
// zero, meaning UpProcs 3 / UpContended 64 never fire. Shrinking the
// window and boundaries keeps the same decision machinery live.
// Three values are shaped by that burst scheduling: UpProcs is 2
// because a burst boundary exposes at most two active pids to one
// decision; the window (24) must divide neither the quick per-pid
// phase budget (80) nor the full one (4000), or every pid's final
// window boundary would consume its own residue and no decision would
// ever see a second active pid; and DownProcs is 0 (descent disabled
// — the deciding pid always counts as active) because with zero
// contended deltas any reachable descent rule oscillates against the
// burst-boundary climbs and the migration churn swamps throughput.
// The down direction stays covered where it is deterministic: the
// pinned replays, the crash sweeps, the forced-morph fuzzers, and
// full-scale multicore runs under DefaultThresholds.
func e23SmokeThresholds() repro.Thresholds {
	return repro.Thresholds{
		Window:        24,
		UpContended:   6,
		DownContended: 2,
		UpProcs:       2,
		DownProcs:     0,
		SetSizeUp:     [2]int{16, 128},
		SetSizeDown:   [2]int{8, 64},
	}
}

func runE23(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	reruns, scale := 3, 1.0
	var extra []repro.Option
	if cfg.Quick {
		reruns, scale = 2, 0.02
	}
	if cfg.Quick || runtime.NumCPU() < 4 {
		extra = []repro.Option{repro.WithThresholds(e23SmokeThresholds())}
	}

	// Part 1: the pinned deterministic migration replay — the adaptive
	// sibling of the ABA and takeover replays. A writer is parked
	// between its cow root read and root CAS while a full cow→harris
	// migration runs to completion; the stale CAS must fail against the
	// sealed root and the op re-dispatch onto the new rung, with the
	// gate count pinned so any protocol drift fails loudly.
	mbuild, msched := sched.AdaptiveMigrationSchedule()
	if _, err := sched.Replay(mbuild, msched, nil); err != nil {
		return fmt.Errorf("E23: pinned mid-migration replay: %v", err)
	}
	if err := fprintf(w, "pinned migration replay: writer parked across the epoch flip for %d gates; stale CAS failed, op re-dispatched, history linearized\n",
		len(msched)); err != nil {
		return err
	}

	// Part 2: exhaustive migrator crash sweep — the migrating process
	// dies at every gate of its cow→harris window (before the open,
	// between open and seal, mid-rebuild, at the close) and the
	// survivor must always complete with the exact expected membership.
	if err := sched.SweepCrashPoints(sched.AdaptiveMigrationGates+1, sched.CrashAdaptiveMigration()); err != nil {
		return fmt.Errorf("E23: migration crash-point sweep: %v", err)
	}
	if err := fprintf(w, "migration crash sweep: migrator crashed at each of %d gates, survivors completed and linearized at every point\n",
		sched.AdaptiveMigrationGates+2); err != nil {
		return err
	}

	// Part 3: the phase-shifting scenario sweep. Each ladder's adaptive
	// meta-backend and every fixed rung run the same contention wave;
	// one table row per (backend, rerun, PHASE), because the claim is
	// per-regime. The rows feed cmd/slogate's E23 gates: within-slack
	// vs the best fixed rung per phase, migration sanity, coverage, and
	// conservation.
	var rows []scenario.AdaptiveRow

	byName := map[string]repro.Backend{}
	for _, b := range repro.Catalog() {
		byName[b.Name] = b
	}

	violations, cells := 0, 0
	for _, sc := range scenario.AdaptiveLibrary() {
		if cfg.Seed != 0x5eed {
			sc.Seed += cfg.Seed
		}
		for _, ladder := range scenario.AdaptiveLadders() {
			if !sc.AppliesTo(ladder.Kind) {
				continue
			}
			for _, name := range append([]string{ladder.Adaptive}, ladder.Fixed...) {
				b, ok := byName[name]
				if !ok {
					return fmt.Errorf("E23: ladder backend %q is not in the catalog", name)
				}
				cells++
				for rerun := 0; rerun < reruns; rerun++ {
					// AfterPhase samples the rung columns at each phase's
					// quiescent join; the run fills in the rest below.
					var phases []scenario.AdaptiveRow
					var prevMig uint64
					res := scenario.Run(b, sc, scenario.Options{
						Scale:     scale,
						ExtraOpts: extra,
						AfterPhase: func(_ int, _ string, drv repro.Ops) {
							r := scenario.AdaptiveRow{Rung: "fixed"}
							if st, ok := repro.AdaptiveStatsOf(drv.Instance); ok {
								r.Rung = st.Rung
								r.Migrations = st.Migrations - prevMig
								prevMig = st.Migrations
								r.InRung = st.InRung[st.Rung]
							}
							phases = append(phases, r)
						},
					})
					conserved := "ok"
					if res.Conserved != nil {
						conserved = fmt.Sprintf("FAIL: %v", res.Conserved)
						violations++
					}
					for i, ph := range res.Phases {
						r := phases[i]
						r.Scenario, r.Backend, r.Rerun, r.Phase = sc.Name, b.Name, rerun, ph.Name
						r.Procs, r.Ops, r.OpsPerSec, r.Conserved = sc.Phases[i].Procs, ph.Ops, ph.OpsPerSec(), conserved
						rows = append(rows, r)
					}
				}
			}
		}
	}

	tb := metrics.TableOf(rows)
	cfg.logTable(e23Caption, tb)
	if err := fprintf(w, "%d phase-shift scenarios x ladder backends (%d cells) x %d reruns x per-phase rows, op-budget scale %.2f\n%s",
		len(scenario.AdaptiveLibrary()), cells, reruns, scale, tb.String()); err != nil {
		return err
	}
	if err := fprintf(w, "note: rung and migrations are sampled at each phase's quiescent join (migrations as the per-phase delta); in-rung-ns is cumulative time on the phase-end rung; fixed rungs report rung \"fixed\" and 0 migrations; gates are applied by cmd/slogate over the -json rows\n"); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("E23: %d run(s) violated conservation", violations)
	}
	return nil
}
