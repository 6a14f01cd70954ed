package bench

import (
	"errors"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cmanager"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/stack"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E3",
		Title: "non-blocking global progress under maximal contention (Figure 2)",
		Claim: "whatever the contention pattern, at least one operation terminates: every window completes ops; abort rate grows with processes but throughput never reaches zero",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E5",
		Title: "throughput vs processes across implementations",
		Claim: "contention-sensitive ≈ lock-free solo; under contention it degrades gracefully toward the lock-based cost instead of collapsing",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "phased solo/storm/solo workload: latency and accesses per op (contention-sensitivity)",
		Claim: "in solo phases the sensitive stack pays the 6-access lock-free cost; only the storm phase pays for locking",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "contention-manager ablation on the retry loop (§5)",
		Claim: "pacing retries (yield/backoff) cuts aborts per operation at equal or better throughput than the bare loop",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E9",
		Title: "queue family: throughput and enq/deq non-interference (§1.1)",
		Claim: "enqueue and dequeue on a non-empty, non-full queue do not interfere: disjoint-end abort rates stay near zero while same-end contention behaves like the stack",
		Run:   runE9,
	})
}

// e3WindowFloor is the shortest E3 sampling window. A window shorter
// than an OS scheduling quantum can see every worker descheduled by the
// host and report zero ops although no operation blocked another.
const e3WindowFloor = 10 * time.Millisecond

// e3Worker builds one worker's operation for an E3 run: op makes one
// attempt, adds its aborts to aborts, and reports whether it completed.
type e3Worker func(pid int, rng *workload.RNG, aborts *atomic.Uint64) (op func() bool)

func runE3(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	return runE3With(cfg, w, func() e3Worker {
		s := stack.NewNonBlocking[uint64](4, cfg.Procs) // tiny stack maximizes interference
		return func(pid int, rng *workload.RNG, aborts *atomic.Uint64) func() bool {
			op := abortCountedMix(s, pid, rng, aborts)
			return func() bool { op(); return true }
		}
	})
}

// runE3With runs E3 over a fresh worker set per process count. A
// window with no completed operation is sampled once more before it
// counts as a violation: a host that deschedules every worker for one
// window does not stall the next, while a blocked object stays at zero.
func runE3With(cfg Config, w io.Writer, newWorker func() e3Worker) error {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("procs", "ops/s", "aborts/op", "min window ops", "windows")
	defer cfg.logTable("E3 contention windows", tb)
	for _, procs := range procSteps(cfg.Procs) {
		worker := newWorker()
		var totalOps, totalAborts atomic.Uint64
		// Sample completed ops per window: global progress means every
		// window sees a positive delta. The windows open at barrier
		// release: goroutine start-up is no part of the claim.
		windows := 10
		window := max(cfg.Duration/time.Duration(windows), e3WindowFloor)
		minWindow := uint64(1<<63 - 1)
		var first, last uint64
		sample := func() {
			first = totalOps.Load()
			last = first
			for i := 0; i < windows; i++ {
				time.Sleep(window)
				cur := totalOps.Load()
				if cur == last {
					time.Sleep(window) // resample a zero window once
					cur = totalOps.Load()
				}
				minWindow = min(minWindow, cur-last)
				last = cur
			}
		}
		_, elapsed := runTimed(procs, cfg.Seed, sample, func(pid int, rng *workload.RNG, _ time.Time) func() {
			op := worker(pid, rng, &totalAborts)
			return func() {
				if op() {
					totalOps.Add(1)
				}
			}
		})
		ops := totalOps.Load()
		abortsPerOp := float64(totalAborts.Load()) / float64(max(ops, 1))
		tb.AddRow(procs, int64(opsPerSec(last-first, elapsed)), abortsPerOp, minWindow, windows)
		if minWindow == 0 {
			fprintf(w, "%s", tb.String())
			return errors.New("E3: a window with zero completed operations (global progress violated)")
		}
	}
	return fprintf(w, "%s", tb.String())
}

// abortCountedMix is E3's and E7's worker operation: one balanced
// push/pop on a Figure 2 stack, adding the attempt's aborts to aborts.
func abortCountedMix(s *stack.NonBlocking[uint64], pid int, rng *workload.RNG, aborts *atomic.Uint64) func() {
	i := 0
	return func() {
		var n int
		if workload.Balanced.NextIsPush(rng) {
			_, n = s.PushCounted(pid, workload.Value(pid, i))
			i++
		} else {
			_, _, n = s.PopCounted(pid)
		}
		aborts.Add(uint64(n))
	}
}

func runE5(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const k = 1024
	tb := metrics.NewTable(append([]string{"impl"}, procLabels(procSteps(cfg.Procs))...)...)
	defer cfg.logTable("E5 stack scaling", tb)
	// The lock-based references, then every strong stack backend the
	// public catalog exports.
	for _, r := range append(lockStackRows(), catalogRows(repro.KindStack, nil)...) {
		cells := []interface{}{r.name}
		for _, procs := range procSteps(cfg.Procs) {
			cells = append(cells, rate(hammer(procs, cfg.Duration, cfg.Seed, r.build(k, procs))))
		}
		tb.AddRow(cells...)
	}
	if err := fprintf(w, "throughput (ops/s), stack capacity %d, balanced push/pop mix\n", k); err != nil {
		return err
	}
	return fprintf(w, "%s", tb.String())
}

func procLabels(steps []int) []string {
	out := make([]string, len(steps))
	for i, p := range steps {
		out[i] = "p=" + strconv.Itoa(p)
	}
	return out
}

// phasedImpl is one measured configuration of E6: an instrumented
// stack and its per-phase driver.
func runE6(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	opsPerPhase := 200000
	if cfg.Quick {
		opsPerPhase = 5000
	}
	phases := workload.SoloThenStorm(cfg.Procs, opsPerPhase)
	tb := metrics.NewTable("impl", "phase", "procs", "accesses/op", "mean latency", "p99")
	defer cfg.logTable("E6 latency phases", tb)

	type cfgRow struct {
		name  string
		stats *memory.Stats
		push  func(pid int, v uint64) error
		pop   func(pid int) (uint64, error)
	}
	mk := func(name string) cfgRow {
		var st memory.Stats
		switch name {
		case "cont-sensitive":
			s := stack.NewSensitiveObserved[uint64](1024, cfg.Procs, &st)
			return cfgRow{name: name, stats: &st, push: s.Push, pop: s.Pop}
		case "non-blocking":
			weak := stack.NewAbortableObserved[uint64](1024, cfg.Procs, &st)
			s := stack.NewNonBlockingFrom[uint64](weak, nil)
			return cfgRow{name: name, stats: &st, push: s.Push, pop: s.Pop}
		default:
			panic("unknown impl")
		}
	}

	for _, name := range []string{"cont-sensitive", "non-blocking"} {
		row := mk(name)
		for pi, ph := range phases {
			before := row.stats.Snapshot()
			var hist metrics.Histogram
			// One round per phase, seeded pid*31+phase as E6 always was.
			runRounds(1, ph.Procs, 0, func(_, pid int, _ *workload.RNG) {
				rng := workload.NewRNG(cfg.Seed + uint64(pid*31+pi))
				for i := 0; i < ph.Ops; i++ {
					start := time.Now()
					if workload.Balanced.NextIsPush(rng) {
						_ = row.push(pid, workload.Value(pid, i))
					} else {
						_, _ = row.pop(pid)
					}
					hist.Record(time.Since(start))
				}
			})
			delta := row.stats.Snapshot().Sub(before)
			totalOps := uint64(ph.Procs * ph.Ops)
			tb.AddRow(row.name, phaseName(pi), ph.Procs,
				float64(delta.Total())/float64(totalOps),
				hist.Mean().String(), hist.Percentile(99).String())
		}
	}
	if err := fprintf(w, "%s", tb.String()); err != nil {
		return err
	}
	return fprintf(w, "note: solo-phase accesses/op ≈ 6 for cont-sensitive (Theorem 1); storm pays retries/locking\n")
}

func phaseName(i int) string {
	switch i {
	case 0:
		return "solo-warm"
	case 1:
		return "storm"
	default:
		return "solo-cool"
	}
}

func runE7(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("manager", "procs", "ops/s", "aborts/op")
	defer cfg.logTable("E7 contention managers", tb)
	procs := cfg.Procs

	// measure drives procs goroutines, each retrying weak ops through
	// its own manager instance from mk (shared managers just return
	// the same one).
	measure := func(name string, mk func(pid int) core.Manager) {
		weak := stack.NewAbortable[uint64](4, procs)
		var totalAborts atomic.Uint64
		counts, elapsed := runTimed(procs, cfg.Seed, sleep(cfg.Duration), func(pid int, rng *workload.RNG, _ time.Time) func() {
			return abortCountedMix(stack.NewNonBlockingFrom[uint64](weak, mk(pid)), pid, rng, &totalAborts)
		})
		ops := metrics.Sum(counts)
		tb.AddRow(name, procs, rate(counts, elapsed),
			float64(totalAborts.Load())/float64(max(ops, 1)))
	}

	for _, name := range cmanager.Names() {
		m := cmanager.ByName(name)
		measure(name, func(int) core.Manager { return m })
	}
	// The §5 boosting extension: per-process handles of one shared
	// priority token.
	prio := cmanager.NewPriority(0)
	measure("priority", func(int) core.Manager { return prio.ForProc() })
	return fprintf(w, "%s", tb.String())
}

func runE9(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const k = 1024

	// Part 1: throughput scaling, mirroring E5: the lock-based and
	// boxed Michael-Scott references, then every strong queue backend
	// the public catalog exports.
	tb := metrics.NewTable(append([]string{"impl"}, procLabels(procSteps(cfg.Procs))...)...)
	defer cfg.logTable("E9 queue scaling", tb)
	for _, r := range append(lockQueueRows(), catalogRows(repro.KindQueue, nil)...) {
		cells := []interface{}{r.name}
		for _, procs := range procSteps(cfg.Procs) {
			cells = append(cells, rate(hammer(procs, cfg.Duration, cfg.Seed, r.build(k, procs))))
		}
		tb.AddRow(cells...)
	}
	if err := fprintf(w, "queue throughput (ops/s), capacity %d, balanced enq/deq mix\n%s", k, tb.String()); err != nil {
		return err
	}

	// Part 2: non-interference of disjoint ends. One enqueuer and one
	// dequeuer paced to stay in disjoint ring regions; then the
	// same-end control (two enqueuers).
	q := queue.NewAbortable[uint64](k)
	for i := uint64(0); i < k/2; i++ {
		if err := q.TryEnqueue(i); err != nil {
			return err
		}
	}
	side := 200000
	if cfg.Quick {
		side = 10000
	}
	var enqAborts, deqAborts atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		done := 0
		for done < side {
			if q.Len() > k*7/8 {
				continue
			}
			if err := q.TryEnqueue(uint64(done)); errors.Is(err, queue.ErrAborted) {
				enqAborts.Add(1)
			} else {
				done++
			}
		}
	}()
	go func() {
		defer wg.Done()
		done := 0
		for done < side {
			if q.Len() < k/8 {
				continue
			}
			if _, err := q.TryDequeue(); errors.Is(err, queue.ErrAborted) {
				deqAborts.Add(1)
			} else {
				done++
			}
		}
	}()
	wg.Wait()

	// Same-end control: two enqueuers on one queue.
	q2 := queue.NewAbortable[uint64](k)
	var sameEndAborts atomic.Uint64
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer wg.Done()
			done := 0
			for done < side/2 {
				err := q2.TryEnqueue(uint64(done))
				switch {
				case errors.Is(err, queue.ErrAborted):
					sameEndAborts.Add(1)
				case errors.Is(err, queue.ErrFull):
					if _, err := q2.TryDequeue(); err == nil {
						// drain to keep going; not counted
					}
				default:
					done++
				}
			}
		}(g)
	}
	wg.Wait()

	tb2 := metrics.NewTable("pattern", "ops/side", "abort rate")
	defer cfg.logTable("E9 non-interference", tb2)
	tb2.AddRow("enq vs deq (disjoint ends)", side,
		float64(enqAborts.Load()+deqAborts.Load())/float64(2*side))
	tb2.AddRow("enq vs enq (same end)", side,
		float64(sameEndAborts.Load())/float64(side))
	if err := fprintf(w, "\nnon-interference (§1.1): disjoint ends should not conflict\n%s", tb2.String()); err != nil {
		return err
	}
	return nil
}
