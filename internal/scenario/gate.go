package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro"
)

// Row is one E21 measurement row as the gate evaluator consumes it —
// one line of the "E21 scenario suite" table. The col tags are the
// table's schema: metrics.TableOf renders rows under them and
// metrics.ParseRows decodes them back, resolving columns by name
// (quantiles as integer nanoseconds, so no consumer ever re-parses
// human-formatted durations). Renaming a column breaks cmd/slogate
// loudly, not silently.
type Row struct {
	Scenario  string        `col:"scenario"`
	Backend   string        `col:"backend"`
	Rerun     int           `col:"rerun"`
	Procs     int           `col:"procs"`
	Ops       uint64        `col:"ops"`
	OKOps     uint64        `col:"ok-ops"`
	OpsPerSec float64       `col:"ops/s"`
	P50       time.Duration `col:"p50 ns"`
	P99       time.Duration `col:"p99 ns"`
	P999      time.Duration `col:"p999 ns"`
	Conserved string        `col:"conserved"`
}

// Verdict is one gate's outcome for one scenario x backend cell (or
// for a whole scenario, Backend "*", on the coverage gate).
type Verdict struct {
	Scenario, Backend string
	// Gate names the check: "slo-p50", "slo-p99", "slo-p999",
	// "variance", "conservation", "coverage", or "known-scenario"
	// (E21); "survivor-progress", "recovery", or "classification"
	// (E22, alongside the shared variance/conservation/coverage).
	Gate     string
	Observed string
	Bound    string
	OK       bool
}

// Evaluate applies every scenario's declared Gate to the parsed rows
// and returns the full verdict table, deterministically ordered
// (library scenario order, then backend, then gate name). SLO gates
// check the median across reruns; the variance gate bounds max/min
// throughput across reruns; conservation requires every row "ok";
// coverage requires at least one row for every applicable catalog
// backend of every library scenario, so a silently dropped cell fails
// the release rather than shrinking it.
func Evaluate(rows []Row) []Verdict {
	return evaluateLibrary(rows, Library(), "scenario.Library()", evaluateCell)
}

// gated is the view of one measurement row the shared gates read.
type gated interface {
	gateView() (scenario, backend string, opsPerSec float64, conserved string)
}

func (r Row) gateView() (string, string, float64, string) {
	return r.Scenario, r.Backend, r.OpsPerSec, r.Conserved
}

func (r CrashRow) gateView() (string, string, float64, string) {
	return r.Scenario, r.Backend, r.OpsPerSec, r.Conserved
}

func (r AdaptiveRow) gateView() (string, string, float64, string) {
	return r.Scenario, r.Backend, r.OpsPerSec, r.Conserved
}

// groupCells buckets rows by (scenario, backend) cell. A row whose
// scenario is not in lib (named libName in the verdict) fails the
// known-scenario gate instead of joining a cell.
func groupCells[R gated](rows []R, lib []Scenario, libName string) (map[[2]string][]R, []Verdict) {
	known := map[string]bool{}
	for _, s := range lib {
		known[s.Name] = true
	}
	byCell := map[[2]string][]R{}
	var verdicts []Verdict
	for _, r := range rows {
		scenario, backend, _, _ := r.gateView()
		if !known[scenario] {
			verdicts = append(verdicts, Verdict{
				Scenario: scenario, Backend: backend, Gate: "known-scenario",
				Observed: "not in " + libName, Bound: "declared scenario", OK: false,
			})
			continue
		}
		key := [2]string{scenario, backend}
		byCell[key] = append(byCell[key], r)
	}
	return byCell, verdicts
}

// evaluateLibrary is E21's and E22's evaluator: group the rows, then
// per library scenario the catalog coverage gate (every applicable
// catalog backend must have rows) followed by gate over each backend's
// cell, backends in sorted order.
func evaluateLibrary[R gated](rows []R, lib []Scenario, libName string, gate func(Scenario, string, []R) []Verdict) []Verdict {
	byCell, verdicts := groupCells(rows, lib, libName)
	for _, sc := range lib {
		var missing []string
		total := 0
		for _, b := range repro.Catalog() {
			if !sc.AppliesTo(b.Kind) {
				continue
			}
			total++
			if len(byCell[[2]string{sc.Name, b.Name}]) == 0 {
				missing = append(missing, b.Name)
			}
		}
		obs := fmt.Sprintf("%d/%d backends", total-len(missing), total)
		if len(missing) > 0 {
			obs += fmt.Sprintf(" (missing %v)", missing)
		}
		verdicts = append(verdicts, Verdict{
			Scenario: sc.Name, Backend: "*", Gate: "coverage",
			Observed: obs, Bound: fmt.Sprintf("%d/%d backends", total, total),
			OK: len(missing) == 0,
		})

		var backends []string
		for key := range byCell {
			if key[0] == sc.Name {
				backends = append(backends, key[1])
			}
		}
		sort.Strings(backends)
		for _, backend := range backends {
			verdicts = append(verdicts, gate(sc, backend, byCell[[2]string{sc.Name, backend}])...)
		}
	}
	return verdicts
}

// varianceGate is the shared throughput-variance methodology gate: the
// max/min ops/s across a cell's reruns within the scenario's bound. It
// reports false when the scenario declares no bound or the cell has a
// single rerun.
func varianceGate[R gated](sc Scenario, backend string, cell []R) (Verdict, bool) {
	if sc.Gate.MaxVarianceRatio <= 0 || len(cell) < 2 {
		return Verdict{}, false
	}
	_, _, lo, _ := cell[0].gateView()
	hi := lo
	for _, r := range cell[1:] {
		_, _, rate, _ := r.gateView()
		lo, hi = min(lo, rate), max(hi, rate)
	}
	ratio := hi / lo
	if lo <= 0 {
		ratio = 0 // zero-throughput rerun: fail via the bound below
	}
	return Verdict{Scenario: sc.Name, Backend: backend, Gate: "variance",
		Observed: fmt.Sprintf("max/min ops/s = %.2f", ratio),
		Bound:    fmt.Sprintf("≤ %.0f over %d reruns", sc.Gate.MaxVarianceRatio, len(cell)),
		OK:       lo > 0 && ratio <= sc.Gate.MaxVarianceRatio}, true
}

// conservationGate requires every row of a cell to report "ok"; unit
// names a row ("rerun" or "row") and bad is the failing observation.
func conservationGate[R gated](scenario, backend string, cell []R, unit, bad string) Verdict {
	ok := true
	for _, r := range cell {
		if _, _, _, conserved := r.gateView(); conserved != "ok" {
			ok = false
		}
	}
	obs := "all " + unit + "s ok"
	if !ok {
		obs = bad
	}
	return Verdict{Scenario: scenario, Backend: backend, Gate: "conservation",
		Observed: obs, Bound: "every " + unit + " ok", OK: ok}
}

// evaluateCell applies one scenario's gate to one backend's reruns.
func evaluateCell(sc Scenario, backend string, cell []Row) []Verdict {
	var out []Verdict
	add := func(gate, observed, bound string, ok bool) {
		out = append(out, Verdict{Scenario: sc.Name, Backend: backend,
			Gate: gate, Observed: observed, Bound: bound, OK: ok})
	}

	for _, slo := range []struct {
		gate  string
		bound time.Duration
		pick  func(Row) time.Duration
	}{
		{"slo-p50", sc.Gate.MaxP50, func(r Row) time.Duration { return r.P50 }},
		{"slo-p99", sc.Gate.MaxP99, func(r Row) time.Duration { return r.P99 }},
		{"slo-p999", sc.Gate.MaxP999, func(r Row) time.Duration { return r.P999 }},
	} {
		if slo.bound == 0 {
			continue
		}
		vals := make([]time.Duration, len(cell))
		for i, r := range cell {
			vals[i] = slo.pick(r)
		}
		med := median(vals)
		add(slo.gate, fmt.Sprintf("median %v", med), fmt.Sprintf("≤ %v", slo.bound), med <= slo.bound)
	}

	if v, ok := varianceGate(sc, backend, cell); ok {
		out = append(out, v)
	}
	return append(out, conservationGate(sc.Name, backend, cell, "rerun", "conservation violated"))
}

// CrashRow is one E22 measurement row as the gate evaluator consumes
// it — one line of the "E22 crash suite" table, schema in the col tags
// as for Row.
type CrashRow struct {
	Scenario    string        `col:"scenario"`
	Backend     string        `col:"backend"`
	Rerun       int           `col:"rerun"`
	Procs       int           `col:"procs"`
	Ops         uint64        `col:"ops"`
	OKOps       uint64        `col:"ok-ops"`
	Abandoned   uint64        `col:"abandoned"`
	OpsPerSec   float64       `col:"ops/s"`
	SurvivorOps uint64        `col:"survivor-ops"`
	Recovery    time.Duration `col:"recovery-ns"`
	Conserved   string        `col:"conserved"`
	Robustness  string        `col:"robustness"`
}

// EvaluateCrash applies the E22 release gates to the parsed crash
// rows, mirroring Evaluate's shape: known-scenario and coverage
// against CrashLibrary(), then per cell survivor-progress (every
// rerun's survivors completed operations after the first crash),
// recovery (median worst-process recovery latency within the
// scenario's bound — the lease-takeover budget made observable),
// conservation (every rerun's bracket holds), classification (the
// measured rows carry the catalog's declared Robustness), and the
// shared throughput-variance methodology gate.
func EvaluateCrash(rows []CrashRow) []Verdict {
	robustness := map[string]string{}
	for _, b := range repro.Catalog() {
		robustness[b.Name] = b.Robustness
	}
	return evaluateLibrary(rows, CrashLibrary(), "scenario.CrashLibrary()",
		func(sc Scenario, backend string, cell []CrashRow) []Verdict {
			return evaluateCrashCell(sc, backend, cell, robustness)
		})
}

// evaluateCrashCell applies the crash gates to one backend's reruns.
func evaluateCrashCell(sc Scenario, backend string, cell []CrashRow, robustness map[string]string) []Verdict {
	var out []Verdict
	add := func(gate, observed, bound string, ok bool) {
		out = append(out, Verdict{Scenario: sc.Name, Backend: backend,
			Gate: gate, Observed: observed, Bound: bound, OK: ok})
	}

	minSurvivor := cell[0].SurvivorOps
	for _, r := range cell[1:] {
		if r.SurvivorOps < minSurvivor {
			minSurvivor = r.SurvivorOps
		}
	}
	add("survivor-progress", fmt.Sprintf("min %d survivor ops", minSurvivor),
		"> 0 in every rerun", minSurvivor > 0)

	if sc.Gate.MaxRecovery > 0 {
		recoveries := make([]time.Duration, len(cell))
		positive := true
		for i, r := range cell {
			recoveries[i] = r.Recovery
			if r.Recovery <= 0 {
				positive = false
			}
		}
		med := median(recoveries)
		add("recovery", fmt.Sprintf("median %v", med),
			fmt.Sprintf("> 0 and ≤ %v", sc.Gate.MaxRecovery),
			positive && med <= sc.Gate.MaxRecovery)
	}

	out = append(out, conservationGate(sc.Name, backend, cell, "rerun", "conservation bracket violated"))

	want, known := robustness[backend]
	labelOK := known
	got := ""
	for _, r := range cell {
		got = r.Robustness
		if r.Robustness != want {
			labelOK = false
		}
	}
	add("classification", got, fmt.Sprintf("catalog says %q", want), labelOK)

	if v, ok := varianceGate(sc, backend, cell); ok {
		out = append(out, v)
	}
	return out
}

// AdaptiveRow is one E23 measurement row as the gate evaluator
// consumes it — one line of the "E23 adaptive suite" table, schema in
// the col tags as for Row. Unlike E21's per-run rows, E23 emits one row
// per PHASE, because the claim under test is per-regime: the adaptive
// backend must track the best fixed rung in every phase, not just on
// the whole-run average (where a bad rung in one phase could hide
// behind a great one in another).
type AdaptiveRow struct {
	Scenario   string        `col:"scenario"`
	Backend    string        `col:"backend"`
	Rerun      int           `col:"rerun"`
	Phase      string        `col:"phase"`
	Procs      int           `col:"procs"`
	Ops        uint64        `col:"ops"`
	OpsPerSec  float64       `col:"ops/s"`
	Rung       string        `col:"rung"`       // rung at end of phase; "fixed" for non-adaptive rows
	Migrations uint64        `col:"migrations"` // completed migrations during this phase
	InRung     time.Duration `col:"in-rung-ns"`
	Conserved  string        `col:"conserved"`
}

// adaptiveSlack returns the within-best-rung throughput floor for one
// phase, keyed off the measured per-phase op count and the measuring
// host's CPU count so the gate self-calibrates to what the run could
// express: at full depth (≥1000 ops per phase) on a host with ≥4
// CPUs — where the contention regimes the ladder targets actually
// exist — the adaptive backend must hold ≥90% of the best fixed
// rung's median. Quick smokes (dozens of ops, goroutine setup
// dominates) and small hosts (goroutines run in sequential bursts, so
// "best fixed rung" degenerates to whichever rung has the least
// machinery) gate at a loose sanity floor instead, the same
// philosophy as E21's 1-core CI bounds.
func adaptiveSlack(phaseOps uint64, ncpu int) (float64, string) {
	if phaseOps >= 1000 && ncpu >= 4 {
		return 0.90, "≥ 0.90x best fixed rung"
	}
	return 0.20, "≥ 0.20x best fixed rung (smoke floor)"
}

// EvaluateAdaptive applies the E23 release gates to the parsed
// per-phase rows: known-scenario and coverage against
// AdaptiveLibrary() x AdaptiveLadders(), then per (scenario, ladder)
// the within-slack gate on EVERY phase (median adaptive ops/s across
// reruns against the best fixed rung's median — tracking the best rung
// per regime is the whole claim), migration sanity (the adaptive
// backend actually moved, and did not thrash: total completed
// migrations per rerun in [1, 200]; fixed rows must report exactly 0,
// or the "fixed" baseline isn't one), and conservation on every row.
// The ncpu argument is the measuring host's CPU count from the
// document's provenance stamp, which picks the within-slack tier.
func EvaluateAdaptive(rows []AdaptiveRow, ncpu int) []Verdict {
	// byCell: (scenario, backend) -> rows; phases stay mixed and are
	// re-split per gate.
	byCell, verdicts := groupCells(rows, AdaptiveLibrary(), "scenario.AdaptiveLibrary()")

	for _, sc := range AdaptiveLibrary() {
		for _, ladder := range AdaptiveLadders() {
			if !sc.AppliesTo(ladder.Kind) {
				continue
			}
			// Coverage: the adaptive backend and every fixed rung of its
			// ladder must have rows — a dropped rung silently weakens
			// "within slack of the BEST fixed rung".
			want := append([]string{ladder.Adaptive}, ladder.Fixed...)
			var missing []string
			for _, b := range want {
				if len(byCell[[2]string{sc.Name, b}]) == 0 {
					missing = append(missing, b)
				}
			}
			obs := fmt.Sprintf("%d/%d ladder backends", len(want)-len(missing), len(want))
			if len(missing) > 0 {
				obs += fmt.Sprintf(" (missing %v)", missing)
			}
			verdicts = append(verdicts, Verdict{
				Scenario: sc.Name, Backend: ladder.Adaptive, Gate: "coverage",
				Observed: obs, Bound: fmt.Sprintf("%d/%d ladder backends", len(want), len(want)),
				OK: len(missing) == 0,
			})
			if len(missing) > 0 {
				continue
			}
			verdicts = append(verdicts, evaluateLadder(sc, ladder, byCell, ncpu)...)
		}
	}

	// Conservation over every known-scenario row, one verdict per
	// (scenario, backend) cell, deterministic order.
	var keys [][2]string
	for key := range byCell {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		verdicts = append(verdicts, conservationGate(key[0], key[1], byCell[key], "row", "conservation violated"))
	}
	return verdicts
}

// evaluateLadder applies the per-phase within-slack gate and the
// migration-sanity gates to one (scenario, ladder) pair whose coverage
// is complete.
func evaluateLadder(sc Scenario, ladder AdaptiveLadder, byCell map[[2]string][]AdaptiveRow, ncpu int) []Verdict {
	var out []Verdict

	// medianPhaseRate: median ops/s across reruns for one backend in
	// one phase (and the phase's op count, for slack calibration).
	medianPhaseRate := func(backend, phase string) (float64, uint64) {
		var rates []float64
		var ops uint64
		for _, r := range byCell[[2]string{sc.Name, backend}] {
			if r.Phase == phase {
				rates = append(rates, r.OpsPerSec)
				ops = r.Ops
			}
		}
		sort.Float64s(rates)
		if len(rates) == 0 {
			return 0, 0
		}
		return rates[len(rates)/2], ops
	}

	for _, ph := range sc.Phases {
		adaptiveMed, phaseOps := medianPhaseRate(ladder.Adaptive, ph.Name)
		best, bestRung := 0.0, ""
		for _, fixed := range ladder.Fixed {
			if med, _ := medianPhaseRate(fixed, ph.Name); med > best {
				best, bestRung = med, fixed
			}
		}
		slack, bound := adaptiveSlack(phaseOps, ncpu)
		ok := best > 0 && adaptiveMed >= slack*best
		out = append(out, Verdict{Scenario: sc.Name, Backend: ladder.Adaptive,
			Gate: "within-slack/" + ph.Name,
			Observed: fmt.Sprintf("%.2fx best (%s %.0f ops/s, adaptive %.0f)",
				safeRatio(adaptiveMed, best), bestRung, best, adaptiveMed),
			Bound: bound, OK: ok})
	}

	// Migration sanity: per rerun, the adaptive backend's total across
	// phases must show real movement without thrashing.
	perRerun := map[int]uint64{}
	for _, r := range byCell[[2]string{sc.Name, ladder.Adaptive}] {
		perRerun[r.Rerun] += r.Migrations
	}
	lo, hi, first := uint64(0), uint64(0), true
	for _, m := range perRerun {
		if first || m < lo {
			lo = m
		}
		if first || m > hi {
			hi = m
		}
		first = false
	}
	out = append(out, verdictRow(sc.Name, ladder.Adaptive, "migration-sanity",
		fmt.Sprintf("%d..%d migrations per rerun", lo, hi),
		"in [1, 200] every rerun", !first && lo >= 1 && hi <= 200))

	for _, fixed := range ladder.Fixed {
		var stray uint64
		for _, r := range byCell[[2]string{sc.Name, fixed}] {
			stray += r.Migrations
		}
		out = append(out, verdictRow(sc.Name, fixed, "fixed-baseline",
			fmt.Sprintf("%d migrations", stray), "exactly 0", stray == 0))
	}
	return out
}

// verdictRow builds one Verdict for the ladder gates above.
func verdictRow(scenario, backend, gate, observed, bound string, ok bool) Verdict {
	return Verdict{Scenario: scenario, Backend: backend, Gate: gate,
		Observed: observed, Bound: bound, OK: ok}
}

// safeRatio divides, mapping a zero denominator to 0.
func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// median returns the middle element (upper middle on even counts).
func median(vals []time.Duration) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
