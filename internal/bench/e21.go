package bench

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "scenario suite: the standard workload scenarios over every applicable backend, with latency quantiles",
		Claim: "which rung of the ladder wins is regime-dependent: under the declarative scenario suite (bursty arrivals, Zipf hot keys, phase flips, role imbalance, slow/crashed processes) every backend keeps its conservation invariant, and the per-op p50/p99/p999 rows — one per scenario x backend x rerun — are what cmd/slogate's SLO and variance release gates check",
		Gate:  "cmd/slogate -exp E21",
		Run:   runE21,
	})
}

// e21Caption names the table cmd/slogate looks up in the -json
// document; scenario.Row's col tags are its column schema.
const e21Caption = "E21 scenario suite"

func runE21(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	reruns, scale := 3, 1.0
	if cfg.Quick {
		reruns, scale = 2, 0.02
	}

	var rows []scenario.Row
	violations := 0
	cells := 0
	for _, sc := range scenario.Library() {
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
				rows = append(rows, scenario.Row{Scenario: sc.Name, Backend: b.Name,
					Rerun: rerun, Procs: res.Procs, Ops: res.Ops, OKOps: res.OKOps,
					OpsPerSec: res.OpsPerSec(),
					P50:       res.Hist.Percentile(50),
					P99:       res.Hist.Percentile(99),
					P999:      res.Hist.Percentile(99.9),
					Conserved: conserved})
			}
		}
	}

	tb := metrics.TableOf(rows)
	cfg.logTable(e21Caption, tb)
	if err := fprintf(w, "%d scenarios x applicable backends (%d cells) x %d reruns, op-budget scale %.2f\n%s",
		len(scenario.Library()), cells, reruns, scale, tb.String()); err != nil {
		return err
	}
	if err := fprintf(w, "note: quantiles are per-op latency in ns; gates (SLO medians, cross-rerun variance, coverage) are applied by cmd/slogate over the -json rows\n"); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("E21: %d scenario run(s) violated conservation", violations)
	}
	return nil
}
