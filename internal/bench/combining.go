package bench

import (
	"io"
	"strconv"

	"repro"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/stack"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "flat combining on the contended path: stack throughput at 1-64 procs",
		Claim: "batching the contended path (one combiner serves every published request per lock acquisition) beats handing the fallback lock to each process in turn: with the contended path isolated, the batched fallback out-throughputs Figure 3's serialized starvation-free fallback (round-robin over TTAS, lock.NewFigure3) from 8 procs up at the same liveness guarantee, while the mixed workload keeps the sensitive six-access fast path when uncontended",
		Run:   runE15,
	})
	register(Experiment{
		ID:    "E16",
		Title: "sharded queue: scaling curve and steal rate",
		Claim: "pid-striping over K flat-combining shards spreads contention across K independent combiner locks (on multicore hosts throughput grows with K) while the owner-first/steal-on-empty dequeue keeps conservation: steals and spills stay near zero under balanced load, rising only when a home shard runs dry or fills",
		Run:   runE16,
	})
}

// scalingProcs returns the proc sweep for the scaling-tier
// experiments: the contended regime they target reaches 64 processes
// unless the caller pinned a count.
func scalingProcs(cfg Config) []int {
	max := cfg.Procs
	if max == 0 {
		max = 64
	}
	return procSteps(max)
}

func runE15(cfg Config, w io.Writer) error {
	steps := scalingProcs(cfg)
	cfg = cfg.withDefaults()
	const k = 1024

	tb := metrics.NewTable(append([]string{"impl"}, procLabels(steps)...)...)
	defer cfg.logTable("E15 scaling", tb)

	// The paper's sensitive tower (resolved from the catalog, not by
	// name) and the lock-based fallback baselines.
	rows := catalogRows(repro.KindStack, func(b repro.Backend) bool {
		return b.Tier == "paper" && b.Progress == "starvation-free"
	})
	for _, r := range lockStackRows() {
		if r.name == "lock(mutex)" || r.name == "lock(tas)" {
			rows = append(rows, r)
		}
	}
	for _, r := range rows {
		cells := []interface{}{r.name}
		for _, procs := range steps {
			cells = append(cells, rate(hammer(procs, cfg.Duration, cfg.Seed, r.build(k, procs))))
		}
		tb.AddRow(cells...)
	}

	// The combining stack, instrumented: keep each step's counters for
	// the diagnostics table.
	row := []interface{}{"flat-combining"}
	diags := metrics.NewTable("procs", "fast share", "batch mean", "max batch")
	defer cfg.logTable("E15 diagnostics", diags)
	for _, procs := range steps {
		s := stack.NewCombining[uint64](k, procs)
		row = append(row, rate(hammer(procs, cfg.Duration, cfg.Seed, pushPop(s, s.Push, s.Pop))))
		st := s.Stats()
		share := 1.0
		if total := st.Fast + st.Published; total > 0 {
			share = float64(st.Fast) / float64(total)
		}
		diags.AddRow(procs, share, st.BatchMean(), st.MaxBatch)
	}
	tb.AddRow(row...)

	if err := fprintf(w, "stack throughput (ops/s), capacity %d, balanced push/pop mix\n%s", k, tb.String()); err != nil {
		return err
	}
	if err := fprintf(w, "\ncombining-path diagnostics (fast share = lock-free shortcut fraction)\n%s", diags.String()); err != nil {
		return err
	}
	return runE15Contended(cfg, steps, w)
}

// runE15Contended isolates the contended path: every operation takes
// the fallback, so the table compares Figure 3's serialized fallback
// (acquire the lock, apply the weak op, release — once per operation)
// against the batched one (publish; one combiner serves the batch).
// The mixed workload above only reaches this regime when fast-path
// attempts abort, which a lightly loaded host may never show.
func runE15Contended(cfg Config, steps []int, w io.Writer) error {
	const k = 1024
	serialized := func(name string, mk func(procs int) lock.PidLock) row {
		return row{name, func(k, procs int) repro.Ops {
			weak := stack.NewAbortable[uint64](k, procs)
			lk := mk(procs)
			return repro.Ops{N: 2, Instance: weak, Do: func(pid, op int, v uint64) (uint64, error) {
				lk.Acquire(pid)
				defer lk.Release(pid)
				if op == 0 {
					return 0, core.Retry(nil, func() (error, bool) {
						err := weak.TryPush(pid, v)
						return err, err != stack.ErrAborted
					})
				}
				type res struct {
					v   uint64
					err error
				}
				r := core.Retry(nil, func() (res, bool) {
					v, err := weak.TryPop(pid)
					return res{v, err}, err != stack.ErrAborted
				})
				return r.v, r.err
			}}
		}}
	}
	rows := []row{
		serialized("serialized RR(TTAS) [Figure 3 fallback]", func(procs int) lock.PidLock {
			return lock.NewFigure3(procs)
		}),
		serialized("serialized mutex", func(int) lock.PidLock {
			return lock.IgnorePid(lock.NewMutex())
		}),
		{"batched flat-combining", func(k, procs int) repro.Ops {
			s := stack.NewCombining[uint64](k, procs)
			return pushPop(s, s.PushContended, s.PopContended)
		}},
	}

	iso := metrics.NewTable(append([]string{"contended path"}, procLabels(steps)...)...)
	defer cfg.logTable("E15 contended isolation", iso)
	for _, r := range rows {
		cells := []interface{}{r.name}
		for _, procs := range steps {
			cells = append(cells, rate(hammer(procs, cfg.Duration, cfg.Seed, r.build(k, procs))))
		}
		iso.AddRow(cells...)
	}
	return fprintf(w, "\ncontended-path isolation: every op takes the fallback (ops/s)\n%s", iso.String())
}

func runE16(cfg Config, w io.Writer) error {
	steps := scalingProcs(cfg)
	cfg = cfg.withDefaults()
	const k = 1024
	shardCounts := []int{1, 2, 4, 8}

	tb := metrics.NewTable(append([]string{"impl"}, procLabels(steps)...)...)
	defer cfg.logTable("E16 sharded scaling", tb)

	// Single-queue baseline: the Figure 3 sensitive queue.
	row := []interface{}{"cont-sensitive"}
	for _, procs := range steps {
		q := queue.NewSensitive[uint64](k, procs)
		row = append(row, rate(hammer(procs, cfg.Duration, cfg.Seed, pushPop(q, q.Enqueue, q.Dequeue))))
	}
	tb.AddRow(row...)

	// K shards; K=1 is the plain flat-combining queue, the degenerate
	// stripe that keeps global FIFO order.
	rates := metrics.NewTable("shards", "procs", "steals/op", "spills/op")
	defer cfg.logTable("E16 steal rates", rates)
	for _, shards := range shardCounts {
		row := []interface{}{"sharded K=" + strconv.Itoa(shards)}
		for _, procs := range steps {
			q := queue.NewSharded[uint64](k, procs, shards)
			counts, elapsed := hammer(procs, cfg.Duration, cfg.Seed, pushPop(q, q.Enqueue, q.Dequeue))
			ops := metrics.Sum(counts)
			row = append(row, rate(counts, elapsed))
			if procs == steps[len(steps)-1] {
				rates.AddRow(shards, procs,
					float64(q.Steals())/float64(max(ops, 1)),
					float64(q.Spills())/float64(max(ops, 1)))
			}
		}
		tb.AddRow(row...)
	}

	if err := fprintf(w, "queue throughput (ops/s), total capacity %d, balanced enq/deq mix\n%s", k, tb.String()); err != nil {
		return err
	}
	if err := fprintf(w, "\nsteal/spill rate at the top of the sweep (owner-first discipline)\n%s", rates.String()); err != nil {
		return err
	}
	return fprintf(w, "note: K=1 is globally FIFO; K>1 relaxes cross-process order (each shard stays FIFO)\n")
}
