package soak

import (
	"strings"
	"testing"
	"time"

	"repro"
)

// shortCfg compresses a soak run enough for the test suite while
// still exercising every moving part: multiple windows, the full
// default fault plan, the watchdog, and the drain audit.
func shortCfg() Config {
	return Config{
		Duration:      1200 * time.Millisecond,
		Window:        300 * time.Millisecond,
		Workers:       4,
		ArrivalMean:   100 * time.Microsecond,
		ThinkMean:     50 * time.Microsecond,
		SessionOps:    16,
		KeyRange:      64,
		StallDeadline: 2 * time.Second,
	}
}

func catalogByName(t *testing.T) map[string]repro.Backend {
	t.Helper()
	byName := map[string]repro.Backend{}
	for _, b := range repro.Catalog() {
		byName[b.Name] = b
	}
	return byName
}

// TestSoakDefaultBackends runs the real engine over the default
// coverage set and demands the full E24 strict contract from the
// combined rows — the in-process version of the CI smoke.
func TestSoakDefaultBackends(t *testing.T) {
	byName := catalogByName(t)
	// The default set must exercise the real seams, not their
	// degradations: the combiner kill on the lease-takeover backend,
	// the forced morph on the adaptive one.
	wantLog := map[string]string{
		"queue/combining": "combiner-kill",
		"set/adaptive":    "forced morph",
	}
	var all []Row
	for _, name := range DefaultBackends() {
		b, ok := byName[name]
		if !ok {
			t.Fatalf("default soak backend %q not in catalog", name)
		}
		var sb strings.Builder
		cfg := shortCfg()
		cfg.Log = &sb
		rows := Run(b, cfg)
		if want := wantLog[name]; want != "" && !strings.Contains(sb.String(), want) {
			t.Errorf("%s: log shows no %q — the fault degraded instead of landing:\n%s",
				name, want, sb.String())
		}
		if len(rows) < 3 {
			t.Fatalf("%s: got %d rows, want >= 2 windows + summary", name, len(rows))
		}
		sum := rows[len(rows)-1]
		if sum.Window != -1 {
			t.Fatalf("%s: last row is window %d, want summary (-1)", name, sum.Window)
		}
		if sum.Faults != uint64(len(DefaultFaultPlan())) {
			t.Errorf("%s: injected %d faults, want %d", name, sum.Faults, len(DefaultFaultPlan()))
		}
		if sum.Recovered != sum.Faults {
			t.Errorf("%s: recovered %d of %d faults", name, sum.Recovered, sum.Faults)
		}
		if sum.Stalls != 0 {
			t.Errorf("%s: watchdog flagged %d stalls", name, sum.Stalls)
		}
		for _, r := range rows {
			if r.Audit != "ok" {
				t.Errorf("%s window %d: audit %s", name, r.Window, r.Audit)
			}
			if r.Window >= 0 && r.Ops == 0 {
				t.Errorf("%s window %d: no traffic", name, r.Window)
			}
		}
		if sum.Sessions == 0 || sum.OKOps == 0 {
			t.Errorf("%s: summary shows no completed work: %+v", name, sum)
		}
		all = append(all, rows...)
	}
	for _, v := range Evaluate(all, true) {
		if !v.OK {
			t.Errorf("strict gate %s/%s failed: observed %s, bound %s",
				v.Backend, v.Gate, v.Observed, v.Bound)
		}
	}
}

// TestSoakPooledBackendTracksPool checks the leak audit actually
// scrapes the pool's arena size on a pooled backend instead of
// reporting -1.
func TestSoakPooledBackendTracksPool(t *testing.T) {
	b, ok := catalogByName(t)["stack/treiber"]
	if !ok {
		t.Skip("stack/treiber not in catalog")
	}
	cfg := shortCfg()
	cfg.Duration, cfg.Window = 600*time.Millisecond, 200*time.Millisecond
	rows := Run(b, cfg)
	sum := rows[len(rows)-1]
	if sum.PoolAllocs < 0 {
		t.Fatalf("pooled backend reported PoolAllocs %d, want >= 0", sum.PoolAllocs)
	}
}

// TestSoakGracefulStop closes Config.Stop long before Duration and
// demands a prompt drain with a clean final audit — the SIGTERM path.
func TestSoakGracefulStop(t *testing.T) {
	b, ok := catalogByName(t)["queue/combining"]
	if !ok {
		t.Skip("queue/combining not in catalog")
	}
	cfg := shortCfg()
	cfg.Duration = 30 * time.Second // the stop, not the clock, must end this
	cfg.Window = 100 * time.Millisecond
	stop := make(chan struct{})
	go func() {
		time.Sleep(250 * time.Millisecond)
		close(stop)
	}()
	cfg.Stop = stop
	t0 := time.Now()
	rows := Run(b, cfg)
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("stop-triggered drain took %v", took)
	}
	sum := rows[len(rows)-1]
	if sum.Window != -1 {
		t.Fatalf("last row is window %d, want summary", sum.Window)
	}
	if sum.Audit != "ok" {
		t.Errorf("drain audit after early stop: %s", sum.Audit)
	}
	if sum.Ops == 0 {
		t.Error("no traffic before the early stop")
	}
	if fails := len(Evaluate(rows, false)); fails == 0 {
		t.Error("non-strict evaluation produced no verdicts")
	}
	for _, v := range Evaluate(rows, false) {
		if !v.OK {
			t.Errorf("non-strict gate %s failed after graceful stop: %s vs %s",
				v.Gate, v.Observed, v.Bound)
		}
	}
}

// TestSoakFaultDegradation soaks a backend with neither crash seam nor
// adaptive ladder and checks the plan degrades instead of vanishing:
// the full fault count still lands and recovers.
func TestSoakFaultDegradation(t *testing.T) {
	b, ok := catalogByName(t)["stack/treiber"]
	if !ok {
		t.Skip("stack/treiber not in catalog")
	}
	drv := repro.Drive(b, repro.WithProcs(2))
	if drv.Abandon != nil || drv.ArmCrash != nil {
		t.Skip("backend grew crash seams; degradation no longer exercised here")
	}
	cfg := shortCfg()
	rows := Run(b, cfg)
	sum := rows[len(rows)-1]
	if want := uint64(len(DefaultFaultPlan())); sum.Faults != want {
		t.Fatalf("degraded plan injected %d faults, want %d", sum.Faults, want)
	}
	if sum.Recovered != sum.Faults {
		t.Errorf("degraded plan: recovered %d of %d", sum.Recovered, sum.Faults)
	}
}

// TestSoakLogLines checks the progress log carries the load-bearing
// lines: fault landings, window summaries, and the drain verdict.
func TestSoakLogLines(t *testing.T) {
	b, ok := catalogByName(t)["queue/combining"]
	if !ok {
		t.Skip("queue/combining not in catalog")
	}
	var sb strings.Builder
	cfg := shortCfg()
	cfg.Log = &sb // engine serializes writes internally
	Run(b, cfg)
	out := sb.String()
	for _, want := range []string{"fault", "window 0:", "drain:"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
}
