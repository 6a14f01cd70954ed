// Command soak runs the long-running fault-injected soak service over
// catalog backends: open-loop session traffic (Poisson arrivals,
// geometric session lengths, exponential think times) supervised by a
// seeded fault plan (mid-op crashes, combiner kills, slow-process
// stalls, forced adaptive morphs), a per-pid heartbeat watchdog, and
// a quiescence-free leak/conservation audit, with windowed metrics
// rows streamed as it goes.
//
// Usage:
//
//	soak [-backends a,b,...] [-duration D] [-window W] [-workers N] [-seed S] [-quick] [-json path]
//
// Each backend soaks for -duration (default 60s; -quick compresses to
// ~12s per backend for the CI smoke). SIGTERM or SIGINT triggers the
// graceful lifecycle: arrivals stop, in-flight operations flush, the
// drain-time conservation audit runs, and the rows collected so far
// are still written and judged. With -json, the windowed rows are
// written as a provenance-stamped bench.Doc under experiment E24 with
// the "E24 soak suite" table — the document cmd/slogate -exp E24
// gates. The exit status reflects the verdicts: 0 when every gate
// holds (the full strict set after a completed run, the invariant
// subset after an interrupted one), 1 on any failure, 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/soak"
)

func main() {
	var (
		backends = flag.String("backends", strings.Join(soak.DefaultBackends(), ","),
			"comma-separated catalog backends to soak")
		duration = flag.Duration("duration", 60*time.Second, "traffic duration per backend")
		window   = flag.Duration("window", 0, "metrics window (0 = duration/10, clamped)")
		workers  = flag.Int("workers", 0, "session lanes per backend (0 = default)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = default)")
		quick    = flag.Bool("quick", false, "compress the run (~12s per backend, the CI smoke)")
		jsonPath = flag.String("json", "", "write rows as a bench.Doc (E24) to this path")
	)
	flag.Parse()
	os.Exit(run(*backends, *duration, *window, *workers, *seed, *quick, *jsonPath))
}

func run(backends string, duration, window time.Duration, workers int, seed uint64, quick bool, jsonPath string) int {
	cfg := soak.Config{
		Duration: duration,
		Window:   window,
		Workers:  workers,
		Seed:     seed,
		Log:      os.Stderr,
	}
	if quick {
		cfg.Duration = 12 * time.Second
		if window == 0 {
			cfg.Window = 2 * time.Second
		}
		if workers == 0 {
			cfg.Workers = 6
		}
	}

	byName := map[string]repro.Backend{}
	for _, b := range repro.Catalog() {
		byName[b.Name] = b
	}
	var targets []repro.Backend
	for _, name := range strings.Split(backends, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "soak: unknown backend %q (see repro.Catalog / README)\n", name)
			return 2
		}
		targets = append(targets, b)
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "soak: no backends selected")
		return 2
	}

	// The graceful lifecycle: the first SIGTERM/SIGINT stops arrivals
	// on the backend currently soaking (and skips the rest); a second
	// signal restores default handling, so a stuck drain can still be
	// killed.
	stop := make(chan struct{})
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "soak: %v — draining (signal again to kill)\n", s)
		interrupted.Store(true)
		close(stop)
		signal.Stop(sigc)
	}()
	cfg.Stop = stop

	start := time.Now()
	var all []soak.Row
	for _, b := range targets {
		select {
		case <-stop:
		default:
			win := "auto"
			if cfg.Window > 0 {
				win = cfg.Window.String()
			}
			fmt.Fprintf(os.Stderr, "soak: %s for %v (window %s, %d faults planned)\n",
				b.Name, cfg.Duration, win, len(soak.DefaultFaultPlan()))
			all = append(all, soak.Run(b, cfg)...)
		}
	}
	signal.Stop(sigc)

	// An interrupted run is judged on the invariant gates only: the
	// strict coverage and fault floors cannot be demanded of a clock
	// that was cut short. A completed run gets the full E24 contract.
	strict := !interrupted.Load()
	verdicts := soak.Evaluate(all, strict)

	fmt.Printf("%s\n", metrics.TableOf(all))
	vt := metrics.NewTable("scenario", "backend", "gate", "observed", "bound", "verdict")
	failed := 0
	for _, v := range verdicts {
		verdict := "ok"
		if !v.OK {
			verdict = "FAIL"
			failed++
		}
		vt.AddRow(v.Scenario, v.Backend, v.Gate, v.Observed, v.Bound, verdict)
	}
	fmt.Printf("%s\n", vt)

	if jsonPath != "" {
		if err := writeJSON(jsonPath, cfg, quick, failed, all, time.Since(start)); err != nil {
			fmt.Fprintf(os.Stderr, "soak: writing %s: %v\n", jsonPath, err)
			return 2
		}
	}
	mode := "strict"
	if !strict {
		mode = "interrupted (invariant gates only)"
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "soak: %d gate(s) failed [%s]\n", failed, mode)
		return 1
	}
	fmt.Fprintf(os.Stderr, "soak: all gates hold [%s]\n", mode)
	return 0
}

// writeJSON wraps the rows as a provenance-stamped bench.Doc under
// experiment E24 — the same document shape contbench -json emits, so
// cmd/slogate and the BENCH_*.json trajectory tooling consume soak
// artifacts unchanged.
func writeJSON(path string, cfg soak.Config, quick bool, failed int, rows []soak.Row, elapsed time.Duration) error {
	e24, _ := bench.ByID("E24")
	tb := metrics.TableOf(rows)
	doc := bench.Doc{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Provenance: bench.CollectProvenance(),
		Procs:      cfg.Workers,
		DurationMS: float64(cfg.Duration.Microseconds()) / 1000,
		Quick:      quick,
		Seed:       cfg.Seed,
		Failed:     failed,
		Experiment: []bench.ExperimentResult{{
			ID:         "E24",
			Title:      e24.Title,
			Claim:      e24.Claim,
			Passed:     failed == 0,
			DurationMS: float64(elapsed.Microseconds()) / 1000,
			Tables: []bench.TableResult{{
				Caption: "E24 soak suite",
				Headers: tb.Headers(),
				Rows:    tb.Rows(),
			}},
		}},
	}
	return doc.WriteFile(path)
}
