package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "obstruction-free deque family (reference [8]) under the paper's constructions",
		Claim: "the HLM array deque — the object obstruction-freedom was defined for — becomes abortable with single attempts, non-blocking under Figure 2, and starvation-free under Figure 3; opposite ends interfere only when the deque is nearly empty",
		Run:   runE14,
	})
}

func runE14(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()

	// Part 1: throughput of the tower under both-end traffic, over
	// every strong deque backend in the public catalog (the weak
	// deque's single attempts abort under a hammer; part 2 measures it
	// on its own terms).
	tb := metrics.NewTable(append([]string{"impl"}, procLabels(procSteps(cfg.Procs))...)...)
	defer cfg.logTable("E14 deque scaling", tb)
	for _, r := range catalogRows(repro.KindDeque, nil) {
		cells := []interface{}{r.name}
		for _, procs := range procSteps(cfg.Procs) {
			d := r.build(1024, procs)
			cells = append(cells, rate(runTimed(procs, cfg.Seed, sleep(cfg.Duration), func(pid int, rng *workload.RNG, _ time.Time) func() {
				i := 0
				return func() {
					// Op codes: 0 pushL, 1 pushR, 2 popL, 3 popR.
					end := rng.Intn(2) ^ 1 // 1 = right
					if workload.Balanced.NextIsPush(rng) {
						_, _ = d.Do(pid, end, uint64(uint32(pid)<<24|uint32(i)))
						i++
					} else {
						_, _ = d.Do(pid, 2+end, 0)
					}
				}
			})))
		}
		tb.AddRow(cells...)
	}
	if err := fprintf(w, "deque throughput (ops/s), both-end balanced mix, capacity 1024\n%s\n", tb.String()); err != nil {
		return err
	}

	// Part 2: opposite-end non-interference (HLM's claim, §1.1's
	// theme): one side works each end of a half-full deque.
	d := deque.NewAbortable(1024)
	for i := uint32(0); i < 256; i++ {
		if err := d.TryPushRight(i); err != nil {
			return err
		}
	}
	side := 100000
	if cfg.Quick {
		side = 5000
	}
	var aborts atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		done := 0
		for done < side {
			if err := d.TryPushRight(1); errors.Is(err, deque.ErrAborted) {
				aborts.Add(1)
				continue
			}
			done++
			_, n := core.RetryCounted(nil, func() (error, bool) {
				_, err := d.TryPopRight()
				return err, !errors.Is(err, deque.ErrAborted)
			})
			aborts.Add(uint64(n))
		}
	}()
	go func() {
		defer wg.Done()
		done := 0
		for done < side {
			v, err := d.TryPopLeft()
			if errors.Is(err, deque.ErrAborted) {
				aborts.Add(1)
				continue
			}
			if err != nil {
				continue
			}
			done++
			_, n := core.RetryCounted(nil, func() (error, bool) {
				err := d.TryPushLeft(v)
				return err, !errors.Is(err, deque.ErrAborted)
			})
			aborts.Add(uint64(n))
		}
	}()
	wg.Wait()
	tb2 := metrics.NewTable("pattern", "ops/side", "cross-end abort rate")
	defer cfg.logTable("E14 cross-end aborts", tb2)
	tb2.AddRow("left vs right on half-full deque", side, float64(aborts.Load())/float64(2*side))
	if err := fprintf(w, "%s\n", tb2.String()); err != nil {
		return err
	}

	// Part 3: linearizability of the strong deque's histories. The
	// strong deque is resolved from the catalog (paper tier,
	// starvation-free) so its name is not restated here.
	rounds := 40
	if cfg.Quick {
		rounds = 10
	}
	var tgt LinTarget
	for _, b := range repro.CatalogByKind(repro.KindDeque) {
		if b.Tier == "paper" && b.Progress == "starvation-free" {
			tgt = linTarget(b)
		}
	}
	if tgt.Build == nil {
		panic("bench: the catalog has no paper-tier starvation-free deque")
	}
	n, _, res := RunLin(tgt, 4, rounds, 4, cfg.Seed)
	tb3 := metrics.NewTable("implementation", "ops checked", "search states", "verdict")
	defer cfg.logTable("E14 linearizability", tb3)
	tb3.AddRow(tgt.Name, n, res.States, LinVerdict(res))
	if err := fprintf(w, "%s", tb3.String()); err != nil {
		return err
	}
	if !res.Ok && !res.Exhausted {
		return fmt.Errorf("E14: strong deque produced a non-linearizable history")
	}
	return nil
}
