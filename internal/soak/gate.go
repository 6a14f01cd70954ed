package soak

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/scenario"
)

// Row is one E24 measurement row: one metrics window of one backend's
// soak run, or — with Window == -1 — the run's drain-time summary.
// Sessions, Faults, Recovered, RecoveryNS, Stalls, HeapBytes,
// PoolAllocs, and GCCycles are cumulative at the row's instant; Ops,
// OKOps, the duration, and the quantiles are the window's own. The col
// tags are the "E24 soak suite" table's schema, rendered by
// metrics.TableOf and decoded by metrics.ParseRows as for the scenario
// gate rows.
type Row struct {
	Backend    string        `col:"backend"`
	Window     int           `col:"window"` // -1 = summary/drain row
	DurMS      float64       `col:"dur-ms"`
	Ops        uint64        `col:"ops"`
	OKOps      uint64        `col:"ok-ops"`
	OpsPerSec  float64       `col:"ops/s"`
	Sessions   uint64        `col:"sessions"`
	P50        time.Duration `col:"p50 ns"`
	P99        time.Duration `col:"p99 ns"`
	P999       time.Duration `col:"p999 ns"`
	Faults     uint64        `col:"faults"`
	Recovered  uint64        `col:"recovered"`
	RecoveryNS int64         `col:"recovery-ns"` // worst fault-to-first-worker-op latency so far
	Stalls     uint64        `col:"stalls"`
	HeapBytes  uint64        `col:"heap-bytes"`
	PoolAllocs int64         `col:"pool-allocs"` // -1 when the backend has no pool
	GCCycles   uint64        `col:"gc-cycles"`
	Audit      string        `col:"audit"` // live audit (windows) or drain audit (summary)
}

// The E24 gate bounds.
const (
	// maxRecovery bounds the worst fault-to-first-worker-op latency.
	maxRecovery = 5 * time.Second
	// minFaultsStrict is the fault floor a full run must inject.
	minFaultsStrict = 3
	// heapSlackBytes absorbs the GC noise floor in the heap-drift
	// bound; poolSlackRecords the pool warm-up tail.
	heapSlackBytes   = 64 << 20
	poolSlackRecords = 4096
)

// Evaluate applies the E24 release gates to the parsed rows and
// returns the verdict table (Verdict.Scenario is "soak" throughout).
// Per backend: a summary row must exist (rows gate); the watchdog
// must have flagged nothing; every window's live audit and the drain
// audit must hold; every window must carry traffic (survivor progress
// across every injected fault); every injected fault must be
// recovered; and with two or more windows, heap and pool growth
// between the first and last window must stay bounded. Strict mode —
// the full-run contract cmd/slogate enforces in CI — additionally
// requires at least two windows, at least minFaultsStrict injected
// faults with the worst recovery under maxRecovery, and coverage: at
// least two distinct backends, including one lease-takeover and one
// adaptive-tier catalog entry. Non-strict mode is for runs cut short
// by SIGTERM, where the invariants must still hold but the coverage
// and fault floors cannot be demanded of an interrupted clock.
func Evaluate(rows []Row, strict bool) []scenario.Verdict {
	byBackend := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, seen := byBackend[r.Backend]; !seen {
			order = append(order, r.Backend)
		}
		byBackend[r.Backend] = append(byBackend[r.Backend], r)
	}

	var verdicts []scenario.Verdict
	add := func(backend, gate, observed, bound string, ok bool) {
		verdicts = append(verdicts, scenario.Verdict{Scenario: "soak", Backend: backend,
			Gate: gate, Observed: observed, Bound: bound, OK: ok})
	}

	if strict {
		robustness := map[string]string{}
		tier := map[string]string{}
		for _, b := range repro.Catalog() {
			robustness[b.Name] = b.Robustness
			tier[b.Name] = b.Tier
		}
		lease, adaptive := 0, 0
		for _, name := range order {
			if robustness[name] == "lease-takeover" {
				lease++
			}
			if tier[name] == "adaptive" {
				adaptive++
			}
		}
		add("*", "coverage",
			fmt.Sprintf("%d backends (%d lease-takeover, %d adaptive)", len(order), lease, adaptive),
			"≥ 2 backends incl. ≥ 1 lease-takeover and ≥ 1 adaptive",
			len(order) >= 2 && lease >= 1 && adaptive >= 1)
	}

	for _, name := range order {
		var windows []Row
		var summary *Row
		for i, r := range byBackend[name] {
			if r.Window < 0 {
				summary = &byBackend[name][i]
			} else {
				windows = append(windows, r)
			}
		}
		if summary == nil {
			add(name, "rows", "no summary row", "one Window == -1 row per backend", false)
			continue
		}
		if strict {
			add(name, "windows", fmt.Sprintf("%d windows", len(windows)),
				"≥ 2", len(windows) >= 2)
		}

		add(name, "watchdog", fmt.Sprintf("%d stalled ops", summary.Stalls),
			"0", summary.Stalls == 0)

		liveOK, firstFail := true, ""
		for _, w := range windows {
			if w.Audit != "ok" && liveOK {
				liveOK, firstFail = false, fmt.Sprintf("window %d: %s", w.Window, w.Audit)
			}
		}
		obs := "every window ok"
		if !liveOK {
			obs = firstFail
		}
		add(name, "live-audit", obs, "every window ok", liveOK)
		add(name, "drain-audit", summary.Audit, "ok", summary.Audit == "ok")

		minOps := uint64(0)
		if len(windows) > 0 {
			minOps = windows[0].Ops
			for _, w := range windows[1:] {
				if w.Ops < minOps {
					minOps = w.Ops
				}
			}
		}
		add(name, "progress", fmt.Sprintf("min %d ops per window", minOps),
			"> 0 in every window", len(windows) == 0 || minOps > 0)

		recObs := fmt.Sprintf("%d/%d recovered, worst %v",
			summary.Recovered, summary.Faults, time.Duration(summary.RecoveryNS))
		if strict {
			add(name, "fault-recovery", recObs,
				fmt.Sprintf("≥ %d injected, all recovered ≤ %v", minFaultsStrict, maxRecovery),
				summary.Faults >= minFaultsStrict && summary.Recovered == summary.Faults &&
					time.Duration(summary.RecoveryNS) <= maxRecovery)
		} else if summary.Faults > 0 {
			add(name, "fault-recovery", recObs, "all injected faults recovered",
				summary.Recovered == summary.Faults)
		}

		if len(windows) >= 2 {
			first, last := windows[0], windows[len(windows)-1]
			add(name, "heap-drift",
				fmt.Sprintf("%d -> %d bytes", first.HeapBytes, last.HeapBytes),
				fmt.Sprintf("≤ 2x first + %dMiB", heapSlackBytes>>20),
				last.HeapBytes <= 2*first.HeapBytes+heapSlackBytes)
			if first.PoolAllocs >= 0 && last.PoolAllocs >= 0 {
				add(name, "pool-drift",
					fmt.Sprintf("%d -> %d arena records", first.PoolAllocs, last.PoolAllocs),
					fmt.Sprintf("≤ 2x first + %d", poolSlackRecords),
					last.PoolAllocs <= 2*first.PoolAllocs+poolSlackRecords)
			}
		}
	}
	return verdicts
}
