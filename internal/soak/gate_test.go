package soak

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// mkWindow builds one healthy window row.
func mkWindow(backend string, window int, faults, recovered uint64) Row {
	return Row{
		Backend: backend, Window: window, DurMS: 300, Ops: 5000, OKOps: 4800,
		OpsPerSec: 16666.667, Sessions: uint64(100 * (window + 1)),
		P50: 800 * time.Nanosecond, P99: 40 * time.Microsecond, P999: 200 * time.Microsecond,
		Faults: faults, Recovered: recovered, RecoveryNS: int64(2 * time.Millisecond),
		Stalls: 0, HeapBytes: 4 << 20, PoolAllocs: -1, GCCycles: 3, Audit: "ok",
	}
}

// mkSummary builds one healthy drain row.
func mkSummary(backend string, faults, recovered uint64) Row {
	r := mkWindow(backend, -1, faults, recovered)
	r.DurMS, r.Ops, r.OKOps, r.Sessions = 1200, 20000, 19000, 400
	return r
}

// healthyRows is a full strict-passing fixture: the coverage pair
// (lease-takeover + adaptive), two windows and a summary each, four
// faults all recovered.
func healthyRows() []Row {
	var rows []Row
	for _, b := range []string{"queue/combining", "set/adaptive"} {
		rows = append(rows,
			mkWindow(b, 0, 1, 1), mkWindow(b, 1, 4, 4), mkSummary(b, 4, 4))
	}
	return rows
}

func failures(vs []scenario.Verdict) []scenario.Verdict {
	var out []scenario.Verdict
	for _, v := range vs {
		if !v.OK {
			out = append(out, v)
		}
	}
	return out
}

// TestRowsTableRoundTrip renders rows through the row codec and
// decodes them back unchanged, negative pool-allocs and a free-text
// audit cell included.
func TestRowsTableRoundTrip(t *testing.T) {
	in := healthyRows()
	in[0].PoolAllocs = 1234
	in[0].Audit = "FAIL: key 3: 5 removes vs 4 adds"
	tb := metrics.TableOf(in)
	out, err := metrics.ParseRows[Row](tb.Headers(), tb.Rows())
	if err != nil {
		t.Fatalf("ParseRows: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d rows, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("row %d round-trip mismatch:\n got %+v\nwant %+v", i, out[i], in[i])
		}
	}
}

func TestParseRowsRejectsMissingColumn(t *testing.T) {
	tb := metrics.TableOf(healthyRows())
	headers := tb.Headers()[1:] // drop "backend"
	rows := tb.Rows()
	for i := range rows {
		rows[i] = rows[i][1:]
	}
	if _, err := metrics.ParseRows[Row](headers, rows); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("want missing-column error naming backend, got %v", err)
	}
}

func TestEvaluateStrictPasses(t *testing.T) {
	for _, v := range Evaluate(healthyRows(), true) {
		if !v.OK {
			t.Errorf("healthy fixture failed gate %s/%s: observed %s, bound %s",
				v.Backend, v.Gate, v.Observed, v.Bound)
		}
	}
}

func TestEvaluateGateFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(rows []Row) []Row
		gate   string
	}{
		{"watchdog", func(rows []Row) []Row {
			rows[2].Stalls = 2 // queue/combining summary
			return rows
		}, "watchdog"},
		{"live-audit", func(rows []Row) []Row {
			rows[1].Audit = "FAIL: pool dropped 3 handles"
			return rows
		}, "live-audit"},
		{"drain-audit", func(rows []Row) []Row {
			rows[2].Audit = "FAIL: conservation: produced 10 vs consumed 4 + drained 5"
			return rows
		}, "drain-audit"},
		{"fault-recovery", func(rows []Row) []Row {
			rows[2].Recovered = 3
			return rows
		}, "fault-recovery"},
		{"slow-recovery", func(rows []Row) []Row {
			rows[2].RecoveryNS = int64(6 * time.Second)
			return rows
		}, "fault-recovery"},
		{"heap-drift", func(rows []Row) []Row {
			rows[1].HeapBytes = 2*rows[0].HeapBytes + heapSlackBytes + 1
			return rows
		}, "heap-drift"},
		{"pool-drift", func(rows []Row) []Row {
			rows[0].PoolAllocs = 100
			rows[1].PoolAllocs = 2*100 + poolSlackRecords + 1
			return rows
		}, "pool-drift"},
		{"progress", func(rows []Row) []Row {
			rows[1].Ops = 0
			return rows
		}, "progress"},
		{"missing-summary", func(rows []Row) []Row {
			return append(rows[:2], rows[3:]...) // drop queue/combining summary
		}, "rows"},
		{"windows", func(rows []Row) []Row {
			return rows[1:] // queue/combining left with 1 window
		}, "windows"},
		{"coverage", func(rows []Row) []Row {
			return rows[:3] // single backend, no adaptive
		}, "coverage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := failures(Evaluate(tc.mutate(healthyRows()), true))
			if len(fails) == 0 {
				t.Fatalf("mutation tripped no gate, want %s", tc.gate)
			}
			found := false
			for _, v := range fails {
				if v.Gate == tc.gate {
					found = true
				}
			}
			if !found {
				t.Errorf("want gate %s among failures, got %+v", tc.gate, fails)
			}
		})
	}
}

func TestEvaluateNonStrictTolerance(t *testing.T) {
	// An interrupted run: one backend, one window, one fault injected
	// and recovered. Every invariant gate must still run; the strict
	// coverage/windows/fault-floor gates must not.
	rows := []Row{mkWindow("queue/combining", 0, 1, 1), mkSummary("queue/combining", 1, 1)}
	vs := Evaluate(rows, false)
	if fails := failures(vs); len(fails) != 0 {
		t.Fatalf("non-strict evaluation of a clean interrupted run failed: %+v", fails)
	}
	for _, v := range vs {
		if v.Gate == "coverage" || v.Gate == "windows" {
			t.Errorf("non-strict evaluation emitted strict gate %s", v.Gate)
		}
	}
	// But an unrecovered fault still fails.
	rows[1].Recovered = 0
	if fails := failures(Evaluate(rows, false)); len(fails) == 0 {
		t.Fatal("non-strict evaluation ignored an unrecovered fault")
	}
}

func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultCrashMidOp:   "crash-mid-op",
		FaultCombinerKill: "combiner-kill",
		FaultStopCrash:    "stop-crash",
		FaultStall:        "stall",
		FaultMorph:        "morph",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
