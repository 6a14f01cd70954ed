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
	lin "repro/internal/linearizability"
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
	type impl struct {
		name string
		mk   func(procs int) (push func(pid int, right bool, v uint32) error, pop func(pid int, right bool) (uint32, error))
	}
	var impls []impl
	for _, b := range repro.CatalogByKind(repro.KindDeque) {
		if b.Weak {
			continue
		}
		b := b
		impls = append(impls, impl{b.Name, func(procs int) (func(int, bool, uint32) error, func(int, bool) (uint32, error)) {
			d := b.Deque(repro.WithCapacity(1024), repro.WithProcs(procs))
			return func(pid int, right bool, v uint32) error {
					if right {
						return d.PushRight(pid, v)
					}
					return d.PushLeft(pid, v)
				}, func(pid int, right bool) (uint32, error) {
					if right {
						return d.PopRight(pid)
					}
					return d.PopLeft(pid)
				}
		}})
	}
	tb := metrics.NewTable(append([]string{"impl"}, procLabels(procSteps(cfg.Procs))...)...)
	defer cfg.logTable("E14 deque scaling", tb)
	for _, im := range impls {
		row := []interface{}{im.name}
		for _, procs := range procSteps(cfg.Procs) {
			push, pop := im.mk(procs)
			row = append(row, rate(runTimed(procs, cfg.Seed, sleep(cfg.Duration), func(pid int, rng *workload.RNG, _ time.Time) func() {
				i := 0
				return func() {
					right := rng.Intn(2) == 0
					if workload.Balanced.NextIsPush(rng) {
						_ = push(pid, right, uint32(pid)<<24|uint32(i))
						i++
					} else {
						_, _ = pop(pid, right)
					}
				}
			})))
		}
		tb.AddRow(row...)
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

	// Part 3: linearizability of the strong deque's histories.
	rounds := 40
	if cfg.Quick {
		rounds = 10
	}
	const procs, perRound = 4, 4
	// The strong deque, resolved from the catalog (paper tier,
	// starvation-free) so its name is not restated here.
	var strong repro.Backend
	for _, b := range repro.CatalogByKind(repro.KindDeque) {
		if b.Tier == "paper" && b.Progress == "starvation-free" {
			strong = b
		}
	}
	if strong.Deque == nil {
		panic("bench: the catalog has no paper-tier starvation-free deque")
	}
	sd := strong.Deque(repro.WithCapacity(6), repro.WithProcs(procs))
	rec := lin.NewRecorder(procs)
	var next atomic.Uint64
	kinds := []string{"pushl", "pushr", "popl", "popr"}
	runRounds(rounds, procs, cfg.Seed, func(_, pid int, rng *workload.RNG) {
		for i := 0; i < perRound; i++ {
			kind := kinds[rng.Intn(4)]
			switch kind {
			case "pushl", "pushr":
				v := next.Add(1)
				pend := rec.Invoke(pid, kind, v)
				var err error
				if kind == "pushl" {
					err = sd.PushLeft(pid, uint32(v))
				} else {
					err = sd.PushRight(pid, uint32(v))
				}
				out := lin.OutcomeOK
				if errors.Is(err, deque.ErrFull) {
					out = lin.OutcomeFull
				}
				rec.Return(pend, 0, out)
			default:
				pend := rec.Invoke(pid, kind, 0)
				var v uint32
				var err error
				if kind == "popl" {
					v, err = sd.PopLeft(pid)
				} else {
					v, err = sd.PopRight(pid)
				}
				out := lin.OutcomeOK
				if errors.Is(err, deque.ErrEmpty) {
					out = lin.OutcomeEmpty
				}
				rec.Return(pend, uint64(v), out)
			}
		}
	})
	h := rec.History()
	res := lin.CheckSegmented(lin.DequeModel(6), h, 0, 0)
	verdict := "linearizable"
	if res.Exhausted {
		verdict = "UNDECIDED (budget)"
	} else if !res.Ok {
		verdict = "VIOLATION"
	}
	tb3 := metrics.NewTable("implementation", "ops checked", "search states", "verdict")
	defer cfg.logTable("E14 linearizability", tb3)
	tb3.AddRow(strong.Name, len(h), res.States, verdict)
	if err := fprintf(w, "%s", tb3.String()); err != nil {
		return err
	}
	if !res.Ok && !res.Exhausted {
		return fmt.Errorf("E14: strong deque produced a non-linearizable history")
	}
	return nil
}
