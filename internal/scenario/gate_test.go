package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/metrics"
)

// fixtureRows synthesizes a fully covered, gate-passing E21 result:
// two reruns per scenario x applicable backend, microsecond-scale
// quantiles, near-identical throughput, conserved.
func fixtureRows() []Row {
	var rows []Row
	for _, sc := range Library() {
		for _, b := range repro.Catalog() {
			if !sc.AppliesTo(b.Kind) {
				continue
			}
			for rerun := 0; rerun < 2; rerun++ {
				rows = append(rows, Row{
					Scenario: sc.Name, Backend: b.Name, Rerun: rerun,
					Ops: 2400, OpsPerSec: 100000 + float64(rerun)*1000,
					P50: 2 * time.Microsecond, P99: 40 * time.Microsecond,
					P999: 400 * time.Microsecond, Conserved: "ok",
				})
			}
		}
	}
	return rows
}

// failures filters the verdicts down to the failed ones, rendered as
// "scenario/backend gate" strings for matching.
func failures(vs []Verdict) []string {
	var out []string
	for _, v := range vs {
		if !v.OK {
			out = append(out, v.Scenario+"/"+v.Backend+" "+v.Gate)
		}
	}
	return out
}

func TestEvaluatePass(t *testing.T) {
	vs := Evaluate(fixtureRows())
	if got := failures(vs); len(got) != 0 {
		t.Fatalf("passing fixture failed gates: %v", got)
	}
	// Every scenario must contribute a coverage verdict plus per-cell
	// SLO/variance/conservation verdicts.
	gates := map[string]int{}
	for _, v := range vs {
		gates[v.Gate]++
	}
	for _, g := range []string{"coverage", "slo-p50", "slo-p99", "slo-p999", "variance", "conservation"} {
		if gates[g] == 0 {
			t.Fatalf("no %q verdicts emitted (got %v)", g, gates)
		}
	}
	if gates["coverage"] != len(Library()) {
		t.Fatalf("coverage verdicts = %d, want one per scenario (%d)", gates["coverage"], len(Library()))
	}
}

func TestEvaluateSLOFail(t *testing.T) {
	rows := fixtureRows()
	// Push one cell's p99 over its scenario's bound on both reruns
	// (the SLO gate checks the median, so one bad rerun must NOT
	// trip it — that's variance's job).
	bad := 0
	for i := range rows {
		if rows[i].Scenario == "steady-mixed" && rows[i].Backend == "stack/treiber" {
			rows[i].P99 = 2 * time.Second
			bad++
		}
	}
	if bad != 2 {
		t.Fatalf("fixture drifted: %d steady-mixed/stack/treiber rows", bad)
	}
	got := failures(Evaluate(rows))
	if len(got) != 1 || got[0] != "steady-mixed/stack/treiber slo-p99" {
		t.Fatalf("want exactly the slo-p99 failure, got %v", got)
	}
}

func TestEvaluateSLOMedianToleratesOneBadRerun(t *testing.T) {
	rows := fixtureRows()
	// Only one of the two reruns spikes: the median (upper middle of
	// two) picks the spike... so use three reruns where the median is
	// clean, and check no SLO failure.
	extra := Row{Scenario: "steady-mixed", Backend: "stack/treiber", Rerun: 2,
		Ops: 2400, OpsPerSec: 101000, P50: 2 * time.Microsecond,
		P99: 40 * time.Microsecond, P999: 400 * time.Microsecond, Conserved: "ok"}
	rows = append(rows, extra)
	for i := range rows {
		if rows[i].Scenario == "steady-mixed" && rows[i].Backend == "stack/treiber" && rows[i].Rerun == 0 {
			rows[i].P99 = 2 * time.Second // one noisy rerun of three
		}
	}
	if got := failures(Evaluate(rows)); len(got) != 0 {
		t.Fatalf("median SLO tripped on a single noisy rerun: %v", got)
	}
}

func TestEvaluateVarianceFail(t *testing.T) {
	rows := fixtureRows()
	for i := range rows {
		if rows[i].Scenario == "zipf-hot" && rows[i].Backend == "set/hashset" && rows[i].Rerun == 1 {
			rows[i].OpsPerSec = rows[i].OpsPerSec / 100 // 100x swing
		}
	}
	got := failures(Evaluate(rows))
	if len(got) != 1 || got[0] != "zipf-hot/set/hashset variance" {
		t.Fatalf("want exactly the variance failure, got %v", got)
	}
}

func TestEvaluateConservationFail(t *testing.T) {
	rows := fixtureRows()
	for i := range rows {
		if rows[i].Scenario == "churn-slow" && rows[i].Backend == "queue/sensitive" && rows[i].Rerun == 0 {
			rows[i].Conserved = "FAIL: produced 100 != consumed 99 + drained 0"
		}
	}
	got := failures(Evaluate(rows))
	if len(got) != 1 || got[0] != "churn-slow/queue/sensitive conservation" {
		t.Fatalf("want exactly the conservation failure, got %v", got)
	}
}

func TestEvaluateCoverageFail(t *testing.T) {
	// Dropping every row of one backend in one scenario must fail
	// that scenario's coverage gate, naming the hole.
	var rows []Row
	for _, r := range fixtureRows() {
		if r.Scenario == "solo-storm" && r.Backend == "set/harris" {
			continue
		}
		rows = append(rows, r)
	}
	got := failures(Evaluate(rows))
	if len(got) != 1 || got[0] != "solo-storm/* coverage" {
		t.Fatalf("want exactly the coverage failure, got %v", got)
	}
	for _, v := range Evaluate(rows) {
		if v.Gate == "coverage" && v.Scenario == "solo-storm" && !strings.Contains(v.Observed, "set/harris") {
			t.Fatalf("coverage verdict does not name the missing backend: %q", v.Observed)
		}
	}
}

func TestEvaluateUnknownScenario(t *testing.T) {
	rows := append(fixtureRows(), Row{Scenario: "who-dis", Backend: "stack/treiber",
		Ops: 1, OpsPerSec: 1, Conserved: "ok"})
	got := failures(Evaluate(rows))
	if len(got) != 1 || got[0] != "who-dis/stack/treiber known-scenario" {
		t.Fatalf("want exactly the known-scenario failure, got %v", got)
	}
}

// TestParseRowsRoundTrip decodes one E21 table line through the row
// codec under Row's own headers and re-renders it cell for cell.
func TestParseRowsRoundTrip(t *testing.T) {
	headers := metrics.TableOf[Row](nil).Headers()
	cells := [][]string{
		{"steady-mixed", "stack/treiber", "1", "8", "2400", "2350", "123456.789", "2000", "40000", "400000", "ok"},
	}
	rows, err := metrics.ParseRows[Row](headers, cells)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Scenario != "steady-mixed" || r.Backend != "stack/treiber" || r.Rerun != 1 ||
		r.Procs != 8 || r.Ops != 2400 || r.OKOps != 2350 || r.OpsPerSec != 123456.789 ||
		r.P50 != 2*time.Microsecond || r.P99 != 40*time.Microsecond ||
		r.P999 != 400*time.Microsecond || r.Conserved != "ok" {
		t.Fatalf("round trip drifted: %+v", r)
	}
	if got := metrics.TableOf(rows).Rows(); !reflect.DeepEqual(got, cells) {
		t.Fatalf("re-rendered cells %v, want %v", got, cells)
	}
}

func TestParseRowsRejectsMissingColumn(t *testing.T) {
	headers := metrics.TableOf[Row](nil).Headers()[:5] // drop the tail columns
	_, err := metrics.ParseRows[Row](headers, nil)
	if err == nil || !strings.Contains(err.Error(), `"ok-ops"`) {
		t.Fatalf("want a missing-column error naming ok-ops, got %v", err)
	}
}
