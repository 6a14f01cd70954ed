package bench

import (
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/soak"
)

func init() {
	register(Experiment{
		ID:    "E24",
		Title: "soak: long-running fault-injected sessions with watchdog, leak audit, and graceful drain",
		Claim: "an implementation that is efficient under the §5 failure model is one a service can sit on: open-loop session traffic (Poisson arrivals, geometric lengths, think times) over the lease-takeover, pooled, and adaptive backends sustains throughput across a full fault plan — mid-op crashes, combiner kills, slow-process stalls, forced morphs — with every fault recovered, no operation stalled past the watchdog deadline, heap and pool growth bounded window over window, and the crash-widened conservation bracket holding at the graceful drain",
		Gate:  "cmd/slogate -exp E24",
		Run:   runE24,
	})
}

// e24Caption names the table cmd/slogate looks up in the -json
// document; soak.Row's col tags are its column schema.
const e24Caption = "E24 soak suite"

// runE24 soaks each default backend under the default fault plan and
// emits the windowed rows. Wall clock per backend: cfg.Duration when
// set explicitly, else 10s (1.2s under Quick — still enough for the
// strict gate's two windows and the full four-fault plan, whose last
// fault lands at 85% of the clock). Hard failures here are the
// invariant (non-strict) gates; the strict full-run contract —
// coverage, fault floor, recovery bound — belongs to cmd/slogate so
// an interrupted or quick run is not mislabeled a correctness bug.
func runE24(cfg Config, w io.Writer) error {
	perBackend := cfg.Duration // before defaulting: 0 means unset
	cfg = cfg.withDefaults()

	scfg := soak.Config{Seed: cfg.Seed, Duration: perBackend}
	if scfg.Duration == 0 {
		scfg.Duration = 10 * time.Second
		if cfg.Quick {
			scfg.Duration = 1200 * time.Millisecond
		}
	}
	if cfg.Quick {
		scfg.Window = scfg.Duration / 4
		scfg.Workers = 4
		scfg.ArrivalMean = 100 * time.Microsecond
		scfg.ThinkMean = 50 * time.Microsecond
		scfg.SessionOps = 16
		scfg.StallDeadline = 2 * time.Second
	}

	byName := map[string]repro.Backend{}
	for _, b := range repro.Catalog() {
		byName[b.Name] = b
	}

	var all []soak.Row
	for _, name := range soak.DefaultBackends() {
		b, ok := byName[name]
		if !ok {
			return fmt.Errorf("E24: soak backend %q not in catalog", name)
		}
		rows := soak.Run(b, scfg)
		all = append(all, rows...)
		sum := rows[len(rows)-1]
		if err := fprintf(w, "%s: %d ops (%d ok) over %d sessions in %v; %d/%d faults recovered (worst %v), %d stalls, drain audit %s\n",
			name, sum.Ops, sum.OKOps, sum.Sessions, scfg.Duration,
			sum.Recovered, sum.Faults, time.Duration(sum.RecoveryNS), sum.Stalls, sum.Audit); err != nil {
			return err
		}
	}
	tb := metrics.TableOf(all)
	cfg.logTable(e24Caption, tb)
	if err := fprintf(w, "\n%s\n", tb); err != nil {
		return err
	}

	failed := 0
	for _, v := range soak.Evaluate(all, false) {
		if !v.OK {
			failed++
			if err := fprintf(w, "INVARIANT FAILED: %s/%s: observed %s, bound %s\n",
				v.Backend, v.Gate, v.Observed, v.Bound); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("E24: %d soak invariant(s) violated", failed)
	}
	return fprintf(w, "soak invariants hold on every backend; strict release gates: cmd/slogate -exp E24\n")
}
