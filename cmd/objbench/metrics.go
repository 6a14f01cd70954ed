package main

import (
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/memory"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// end-to-end and per-layer metrics; TestMetricsMatchBenchmarkJSON keeps
// the two in lockstep.
type metricDef struct {
	name, unit, better string
	// bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before a change is a regression.
	bound float64
}

// endToEnd are what a user of the objects sees; an untraced run reports
// them. README.md gives each bound's calibration.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "p99_ns", unit: "ns", better: "lower", bound: 0.25},
	{name: "live_heap_bytes", unit: "B", better: "lower", bound: 0.10},
	{name: "allocs_per_op_plus0.2", unit: "allocs/op", better: "lower", bound: 0.05},
	{name: "bytes_per_op_plus20", unit: "B/op", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// The set workloads allocate nothing per op, and a bound relative to 0
// allows nothing. The gated allocation metrics add a constant c to the
// count: a relative bound b on count+c allows a worsening of b·count +
// b·c, which at b = 5% is 5% plus 0.01 allocs or 1 B per op.
const (
	allocsOffset = 0.2
	bytesOffset  = 20
)

// untracedExtra are printed beside the end-to-end metrics but not
// gated. The median latency sits between two modes of the latency
// distribution (a lock convoy or not on stack-contended, fast and slow
// ops on stack-solo), so its run-to-run spread reached 22% on a 2-vCPU
// host; p99.9 repeats no better. The sample count qualifies the
// percentiles. fail_ratio is 0 on every healthy run: any failed op
// fails the run. allocs_per_op and bytes_per_op are the raw counts.
var untracedExtra = []metricDef{
	{name: "p50_ns", unit: "ns", better: "lower"},
	{name: "p999_ns", unit: "ns", better: "lower"},
	{name: "latency_samples", unit: "count", better: "higher"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "allocs_per_op", unit: "allocs/op", better: "lower"},
	{name: "bytes_per_op", unit: "B/op", better: "lower"},
}

// perLayer are produced by the traced run. A counter of a layer the
// workload's backend does not contain reads 0. README.md names the
// end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	{name: "repro.drive_ns_per_op", unit: "ns", better: "lower"},
	{name: "repro.direct_ns_per_op", unit: "ns", better: "lower"},
	{name: "repro.contract_ns_per_op", unit: "ns", better: "lower"},
	{name: "core.fast_ratio", unit: "ratio", better: "higher"},
	{name: "core.retries_per_slow", unit: "count", better: "lower"},
	{name: "core.guard_fast_ns", unit: "ns", better: "lower"},
	{name: "combine.fast_ratio", unit: "ratio", better: "higher"},
	{name: "combine.batch_mean", unit: "count", better: "higher"},
	{name: "combine.retries_per_op", unit: "count", better: "lower"},
	{name: "combine.steals", unit: "count", better: "lower"},
	{name: "memory.pool_reuse_ratio", unit: "ratio", better: "higher"},
	{name: "memory.pool_arena_records", unit: "count", better: "lower"},
	{name: "memory.pool_shared_per_kop", unit: "count", better: "lower"},
	{name: "memory.pool_getput_ns", unit: "ns", better: "lower"},
	{name: "memory.tagged_cas_ns", unit: "ns", better: "lower"},
	{name: "set.buckets", unit: "count", better: "lower"},
	{name: "set.resizes", unit: "count", better: "lower"},
	{name: "set.size_error", unit: "count", better: "lower"},
	{name: "gc.cycles_per_mop", unit: "count", better: "lower"},
	{name: "gc.pause_ns_per_op", unit: "ns", better: "lower"},
	{name: "gen.ns_per_op", unit: "ns", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// counters is a snapshot of the path counters a backend exposes behind
// repro.Unwrap, plus the runtime's allocation and GC counters.
type counters struct {
	guard core.GuardStats
	comb  repro.CombiningStats
	pool  repro.PoolStats
	mem   runtime.MemStats
}

func readCounters(ops repro.Ops) counters {
	var c counters
	x := repro.Unwrap(ops.Instance)
	if g, ok := x.(interface{ Guard() *repro.Guard }); ok {
		c.guard = g.Guard().Stats()
	}
	if s, ok := x.(interface{ Stats() repro.CombiningStats }); ok {
		c.comb = s.Stats()
	}
	if p, ok := x.(interface{ PoolStats() repro.PoolStats }); ok {
		c.pool = p.PoolStats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the counter metrics of one measured phase, per
// layer and allocation, from the counters before (a) and after (b) it.
func layerMetrics(a, b counters, ops uint64, into map[string]float64) {
	n := float64(ops)
	fast, slow := float64(b.guard.Fast-a.guard.Fast), float64(b.guard.Slow-a.guard.Slow)
	into["core.fast_ratio"] = ratio(fast, fast+slow)
	into["core.retries_per_slow"] = ratio(float64(b.guard.Retries-a.guard.Retries), slow)

	cFast, cPub := float64(b.comb.Fast-a.comb.Fast), float64(b.comb.Published-a.comb.Published)
	into["combine.fast_ratio"] = ratio(cFast, cFast+cPub)
	into["combine.batch_mean"] = ratio(float64(b.comb.Served-a.comb.Served), float64(b.comb.Combines-a.comb.Combines))
	into["combine.retries_per_op"] = ratio(float64(b.comb.Retries-a.comb.Retries), cFast+cPub)
	into["combine.steals"] = float64(b.comb.Steals)

	reuses, allocs := float64(b.pool.Reuses-a.pool.Reuses), float64(b.pool.Allocs-a.pool.Allocs)
	into["memory.pool_reuse_ratio"] = ratio(reuses, reuses+allocs)
	into["memory.pool_arena_records"] = float64(b.pool.Allocs)
	shared := b.pool.Spills - a.pool.Spills + b.pool.Refills - a.pool.Refills
	into["memory.pool_shared_per_kop"] = ratio(1000*float64(shared), n)

	into["gc.cycles_per_mop"] = ratio(1e6*float64(b.mem.NumGC-a.mem.NumGC), n)
	into["gc.pause_ns_per_op"] = ratio(float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs), n)
	into["allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n)
	into["bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n)
	into["allocs_per_op_plus0.2"] = into["allocs_per_op"] + allocsOffset
	into["bytes_per_op_plus20"] = into["bytes_per_op"] + bytesOffset
}

// setMetrics reads the hash layer's shape and checks Size against the
// member count verify established at quiescence.
func setMetrics(ops repro.Ops, members int, into map[string]float64) {
	into["set.buckets"], into["set.resizes"], into["set.size_error"] = 0, 0, 0
	h, ok := repro.Unwrap(ops.Instance).(interface {
		Size() int
		Buckets() int
		Resizes() uint64
	})
	if !ok {
		return
	}
	into["set.buckets"] = float64(h.Buckets())
	into["set.resizes"] = float64(h.Resizes())
	into["set.size_error"] = math.Abs(float64(h.Size() - members))
}

// sink keeps the microloops' results live.
var sink uint64

// timeLoop runs body in batches of 1024 iterations until budget has
// passed and returns the mean ns per iteration.
func timeLoop(budget time.Duration, body func(n int)) float64 {
	start := time.Now()
	for iters := 1024; ; iters += 1024 {
		body(1024)
		if el := time.Since(start); el >= budget {
			return float64(el.Nanoseconds()) / float64(iters)
		}
	}
}

// primMetrics times the primitives solo: one Figure 3 fast-path Do on
// a try that succeeds, one Pool Get+Put, one TaggedRef read+CAS, and
// the workload's own op generator.
func primMetrics(s *spec, seed uint64, round int, budget time.Duration, into map[string]float64) {
	g := repro.NewGuard(repro.NewStarvationFreeLock(repro.NewTASLock(), 1))
	try := func() (uint64, bool) { return 1, true }
	into["core.guard_fast_ns"] = timeLoop(budget, func(n int) {
		for range n {
			sink += repro.Do(g, 0, try)
		}
	})

	pool := memory.NewPool[uint64](1, nil)
	into["memory.pool_getput_ns"] = timeLoop(budget, func(n int) {
		for range n {
			pool.Put(0, pool.Get(0))
		}
	})

	h := pool.Get(0)
	ref := memory.NewTaggedRef(pool, memory.PackTagged(h, 0))
	into["memory.tagged_cas_ns"] = timeLoop(budget, func(n int) {
		for range n {
			old := ref.Read()
			if ref.CAS(old, old.Next(h)) {
				sink++
			}
		}
	})

	gn := newGen(s, s.sampler(), seed, round, 0)
	into["gen.ns_per_op"] = timeLoop(budget, func(n int) {
		for range n {
			op, v := gn.next()
			sink += uint64(op) + v
		}
	})
}
