// Command slogate is the release gate over the scenario suites: it
// loads a contbench -json document (the bench.Doc schema), finds the
// experiment's scenario table — "E21 scenario suite" rows gated by
// SLO/variance (internal/scenario.Evaluate), "E22 crash suite" rows
// gated by survivor progress, recovery latency, the conservation
// bracket, and the Robustness classification (scenario.EvaluateCrash),
// "E23 adaptive suite" per-phase rows gated by within-slack against
// the best fixed rung, migration sanity, and conservation
// (scenario.EvaluateAdaptive), or "E24 soak suite" windowed rows
// gated by the strict soak contract — watchdog silence, live and
// drain audits, fault recovery, bounded heap/pool drift, coverage
// (internal/soak.Evaluate) — and prints a deterministic per-gate
// verdict table. Exit status 1 means at least one gate failed — CI
// runs it after the E21/E22/E23/E24 smokes so a latency regression, a
// throughput flap, a conservation violation, a stalled survivor, a
// wedged takeover, a frozen (or thrashing) adaptive ladder, a leaking
// soak, or a silently dropped scenario cell fails the build.
//
// Usage:
//
//	slogate [-exp E21|E22|E23|E24] [-all] BENCH_E21.json
//
// -all prints every verdict row; by default passing gates are
// summarized per scenario and only failures are expanded.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/soak"
)

func main() {
	var (
		exp     = flag.String("exp", "E21", "experiment id whose scenario table is gated")
		showAll = flag.Bool("all", false, "print every verdict row, not just failures and summaries")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: slogate [-exp E21] [-all] <contbench-json>")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *exp, *showAll, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "slogate: %v\n", err)
		os.Exit(1)
	}
}

func run(path, exp string, showAll bool, w io.Writer) error {
	doc, err := bench.ReadDoc(path)
	if err != nil {
		return err
	}
	rec, ok := doc.FindExperiment(exp)
	if !ok {
		return fmt.Errorf("%s: document has no %s record (ran `contbench -run %s -json`?)", path, exp, exp)
	}
	for _, sg := range suiteGates {
		if table, ok := rec.FindTable(exp + " " + sg.suite); ok {
			nrows, verdicts, err := sg.gate(table, doc.Provenance.NumCPU)
			if err != nil {
				return err
			}
			return report(w, path, doc, nrows, verdicts, showAll)
		}
	}
	return fmt.Errorf("%s: %s record carries no scenario, crash, adaptive, or soak table", path, exp)
}

// report prints the provenance line and the verdict table, and returns
// an error counting the failed gates, if any.
func report(w io.Writer, path string, doc bench.Doc, nrows int, verdicts []scenario.Verdict, showAll bool) error {
	fmt.Fprintf(w, "slogate: %d rows from %s (%s, go %s, %s/%s, %d cpu, sha %s)\n",
		nrows, path, doc.Generated, doc.Provenance.GoVersion,
		doc.Provenance.OS, doc.Provenance.Arch, doc.Provenance.NumCPU, doc.Provenance.GitSHA)

	failed := 0
	tb := metrics.NewTable("scenario", "backend", "gate", "observed", "bound", "verdict")
	for _, v := range verdicts {
		if !v.OK {
			failed++
		}
		if showAll || !v.OK || v.Backend == "*" {
			verdict := "pass"
			if !v.OK {
				verdict = "FAIL"
			}
			tb.AddRow(v.Scenario, v.Backend, v.Gate, v.Observed, v.Bound, verdict)
		}
	}
	fmt.Fprint(w, tb.String())
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed", failed, len(verdicts))
	}
	fmt.Fprintf(w, "all %d gates passed\n", len(verdicts))
	return nil
}

// suiteGates maps each gated table's caption (after the experiment id)
// to its row decoder and evaluator; the first caption the record
// carries wins. ncpu is the measuring host's CPU count.
var suiteGates = []struct {
	suite string
	gate  func(table bench.TableResult, ncpu int) (int, []scenario.Verdict, error)
}{
	{"scenario suite", gated(func(rows []scenario.Row, _ int) []scenario.Verdict { return scenario.Evaluate(rows) })},
	{"crash suite", gated(func(rows []scenario.CrashRow, _ int) []scenario.Verdict { return scenario.EvaluateCrash(rows) })},
	{"adaptive suite", gated(scenario.EvaluateAdaptive)},
	// The release gate always applies the strict full-run contract;
	// interrupted runs are judged (non-strict) by cmd/soak itself.
	{"soak suite", gated(func(rows []soak.Row, _ int) []scenario.Verdict { return soak.Evaluate(rows, true) })},
}

// gated decodes a table into rows of T and applies evaluate to them,
// returning the row count and the verdicts.
func gated[T any](evaluate func([]T, int) []scenario.Verdict) func(bench.TableResult, int) (int, []scenario.Verdict, error) {
	return func(table bench.TableResult, ncpu int) (int, []scenario.Verdict, error) {
		rows, err := metrics.ParseRows[T](table.Headers, table.Rows)
		if err != nil {
			return 0, nil, err
		}
		return len(rows), evaluate(rows, ncpu), nil
	}
}
