package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/metrics"
)

// churnSlowStreamSHA256 pins the churn-slow op stream byte-for-byte
// at Scale 0.01: the slow/crash schedule (who slows, who crashes,
// after how many ops, issuing which ops) is a pure function of the
// scenario and must not drift across changes to the runner. If an
// intentional generator change lands, re-derive the constant from the
// failure message — but know that it invalidates comparisons against
// every earlier BENCH_E21/E22 row.
const churnSlowStreamSHA256 = "5328ba93fd255e75b5a01abbbaf5edb46a6bfd81e0000607d07395ef630ad9a4"

func TestChurnSlowReplayPinnedBytes(t *testing.T) {
	sc, ok := ByName("churn-slow")
	if !ok {
		t.Fatal("churn-slow missing from the library")
	}
	b := replayBackends(t)[0] // stack/sensitive
	res := Run(b, sc, Options{Scale: 0.01, Record: true})
	if res.Conserved != nil {
		t.Fatalf("conservation: %v", res.Conserved)
	}
	sum := sha256.Sum256(res.OpStream)
	if got := hex.EncodeToString(sum[:]); got != churnSlowStreamSHA256 {
		t.Fatalf("churn-slow op stream drifted:\n  got  %s\n  want %s\n(len %d bytes)",
			got, churnSlowStreamSHA256, len(res.OpStream))
	}
}

// TestCrashLibraryShape pins the crash suite's structural invariants:
// complete descriptions, unique names, a recovery gate on every
// scenario, pid 0 never crashing, and — because a §5 crashed process
// may never take another step — no later phase reusing a crashed pid.
func TestCrashLibraryShape(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range CrashLibrary() {
		if sc.Name == "" || sc.Desc == "" || sc.Seed == 0 || len(sc.Phases) == 0 {
			t.Fatalf("crash scenario %q incompletely described", sc.Name)
		}
		if names[sc.Name] {
			t.Fatalf("duplicate crash scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if _, clash := ByName(sc.Name); clash {
			t.Fatalf("crash scenario %q collides with an E21 library name", sc.Name)
		}
		if sc.Gate.MaxRecovery == 0 || sc.Gate.MaxVarianceRatio == 0 {
			t.Fatalf("crash scenario %q ships without a recovery/variance gate", sc.Name)
		}
		crashes := false
		minSurvivors := 1 << 30
		for _, p := range sc.Phases {
			if p.Name == "" || p.Procs <= 0 || p.Ops <= 0 {
				t.Fatalf("crash scenario %q phase %+v incompletely described", sc.Name, p)
			}
			if p.Procs > minSurvivors {
				t.Fatalf("crash scenario %q phase %q reuses a crashed pid (procs %d > surviving %d)",
					sc.Name, p.Name, p.Procs, minSurvivors)
			}
			if p.CrashPids > 0 {
				crashes = true
				if p.CrashPids >= p.Procs {
					t.Fatalf("crash scenario %q phase %q crashes every pid (pid 0 must survive for drain)",
						sc.Name, p.Name)
				}
				if s := p.Procs - p.CrashPids; s < minSurvivors {
					minSurvivors = s
				}
			}
		}
		if !crashes {
			t.Fatalf("crash scenario %q crashes nobody", sc.Name)
		}
	}
	if _, ok := CrashByName("no-such-scenario"); ok {
		t.Fatal("CrashByName resolved a nonexistent scenario")
	}
}

// TestCrashScenarioSurvivors runs every crash scenario over one
// survivor-safe and one lease-takeover backend per applicable kind's
// worth of interest: conservation must bracket, survivors must make
// progress after the crash, and a recovery latency must be recorded.
func TestCrashScenarioSurvivors(t *testing.T) {
	var picks []repro.Backend
	for _, b := range repro.Catalog() {
		switch b.Name {
		case "stack/treiber", "stack/combining", "queue/combining", "set/combining", "deque/non-blocking":
			picks = append(picks, b)
		}
	}
	if len(picks) != 5 {
		t.Fatalf("expected 5 picked backends, got %d", len(picks))
	}
	for _, sc := range CrashLibrary() {
		for _, b := range picks {
			if !sc.AppliesTo(b.Kind) {
				continue
			}
			res := Run(b, sc, Options{Scale: 0.02})
			if res.Conserved != nil {
				t.Errorf("%s/%s: conservation bracket: %v", sc.Name, b.Name, res.Conserved)
			}
			if res.SurvivorOps == 0 {
				t.Errorf("%s/%s: no survivor progress after the crash", sc.Name, b.Name)
			}
			if res.RecoveryNS <= 0 {
				t.Errorf("%s/%s: no recovery latency recorded", sc.Name, b.Name)
			}
			if b.Robustness == "lease-takeover" && res.Abandoned == 0 {
				t.Errorf("%s/%s: mid-op crash abandoned nothing on a combining backend", sc.Name, b.Name)
			}
		}
	}
}

// fixtureCrashRows synthesizes a fully covered, gate-passing E22
// result: two reruns per crash scenario x applicable backend.
func fixtureCrashRows() []CrashRow {
	robustness := map[string]string{}
	for _, b := range repro.Catalog() {
		robustness[b.Name] = b.Robustness
	}
	var rows []CrashRow
	for _, sc := range CrashLibrary() {
		for _, b := range repro.Catalog() {
			if !sc.AppliesTo(b.Kind) {
				continue
			}
			for rerun := 0; rerun < 2; rerun++ {
				rows = append(rows, CrashRow{
					Scenario: sc.Name, Backend: b.Name, Rerun: rerun,
					Ops: 2000, OKOps: 1900, Abandoned: 2,
					OpsPerSec:   100000 + float64(rerun)*1000,
					SurvivorOps: 800, Recovery: 3 * time.Millisecond,
					Conserved: "ok", Robustness: robustness[b.Name],
				})
			}
		}
	}
	return rows
}

func TestEvaluateCrashPass(t *testing.T) {
	vs := EvaluateCrash(fixtureCrashRows())
	if got := failures(vs); len(got) != 0 {
		t.Fatalf("passing fixture failed gates: %v", got)
	}
	gates := map[string]int{}
	for _, v := range vs {
		gates[v.Gate]++
	}
	for _, g := range []string{"coverage", "survivor-progress", "recovery", "conservation", "classification", "variance"} {
		if gates[g] == 0 {
			t.Fatalf("no %q verdicts emitted (got %v)", g, gates)
		}
	}
	if gates["coverage"] != len(CrashLibrary()) {
		t.Fatalf("coverage verdicts = %d, want one per crash scenario (%d)", gates["coverage"], len(CrashLibrary()))
	}
}

func TestEvaluateCrashSurvivorStall(t *testing.T) {
	rows := fixtureCrashRows()
	for i := range rows {
		if rows[i].Scenario == "mid-op-storm" && rows[i].Backend == "stack/combining" && rows[i].Rerun == 1 {
			rows[i].SurvivorOps = 0 // one stalled rerun is enough to fail
		}
	}
	got := failures(EvaluateCrash(rows))
	if len(got) != 1 || got[0] != "mid-op-storm/stack/combining survivor-progress" {
		t.Fatalf("want exactly the survivor-progress failure, got %v", got)
	}
}

func TestEvaluateCrashRecoveryFail(t *testing.T) {
	rows := fixtureCrashRows()
	for i := range rows {
		if rows[i].Scenario == "combiner-crash" && rows[i].Backend == "queue/combining" {
			rows[i].Recovery = 30 * time.Second // both reruns: median trips
		}
	}
	got := failures(EvaluateCrash(rows))
	if len(got) != 1 || got[0] != "combiner-crash/queue/combining recovery" {
		t.Fatalf("want exactly the recovery failure, got %v", got)
	}
}

func TestEvaluateCrashClassificationDrift(t *testing.T) {
	rows := fixtureCrashRows()
	for i := range rows {
		if rows[i].Scenario == "crash-storm" && rows[i].Backend == "stack/treiber" {
			rows[i].Robustness = "lease-takeover" // rows disagree with the catalog
		}
	}
	got := failures(EvaluateCrash(rows))
	if len(got) != 1 || got[0] != "crash-storm/stack/treiber classification" {
		t.Fatalf("want exactly the classification failure, got %v", got)
	}
}

func TestEvaluateCrashUnknownScenario(t *testing.T) {
	rows := append(fixtureCrashRows(), CrashRow{Scenario: "who-dis", Backend: "stack/treiber",
		Ops: 1, OpsPerSec: 1, SurvivorOps: 1, Recovery: time.Millisecond,
		Conserved: "ok", Robustness: "survivor-safe"})
	got := failures(EvaluateCrash(rows))
	if len(got) != 1 || got[0] != "who-dis/stack/treiber known-scenario" {
		t.Fatalf("want exactly the known-scenario failure, got %v", got)
	}
}

func TestEvaluateCrashCoverageFail(t *testing.T) {
	var rows []CrashRow
	for _, r := range fixtureCrashRows() {
		if r.Scenario == "combiner-crash" && r.Backend == "set/combining" {
			continue
		}
		rows = append(rows, r)
	}
	got := failures(EvaluateCrash(rows))
	if len(got) != 1 || got[0] != "combiner-crash/* coverage" {
		t.Fatalf("want exactly the coverage failure, got %v", got)
	}
	for _, v := range EvaluateCrash(rows) {
		if v.Gate == "coverage" && v.Scenario == "combiner-crash" && !strings.Contains(v.Observed, "set/combining") {
			t.Fatalf("coverage verdict does not name the missing backend: %q", v.Observed)
		}
	}
}

// TestParseCrashRowsRoundTrip decodes one E22 table line through the
// row codec under CrashRow's own headers, re-renders it cell for cell,
// and rejects a table missing the tail columns.
func TestParseCrashRowsRoundTrip(t *testing.T) {
	headers := metrics.TableOf[CrashRow](nil).Headers()
	cells := [][]string{
		{"mid-op-storm", "stack/combining", "1", "8", "2000", "1900", "3", "123456.789", "800", "3000000", "ok", "lease-takeover"},
	}
	rows, err := metrics.ParseRows[CrashRow](headers, cells)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Scenario != "mid-op-storm" || r.Backend != "stack/combining" || r.Rerun != 1 ||
		r.Procs != 8 || r.Ops != 2000 || r.OKOps != 1900 || r.Abandoned != 3 ||
		r.OpsPerSec != 123456.789 || r.SurvivorOps != 800 ||
		r.Recovery != 3*time.Millisecond || r.Conserved != "ok" || r.Robustness != "lease-takeover" {
		t.Fatalf("round trip drifted: %+v", r)
	}
	if got := metrics.TableOf(rows).Rows(); !reflect.DeepEqual(got, cells) {
		t.Fatalf("re-rendered cells %v, want %v", got, cells)
	}
	if _, err := metrics.ParseRows[CrashRow](headers[:6], nil); err == nil {
		t.Fatal("ParseRows accepted a crash table missing required columns")
	}
}
