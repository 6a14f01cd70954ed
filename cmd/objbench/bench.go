package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/queue"
)

// wl is one workload's state across the run's rounds.
type wl struct {
	s          *spec
	backend    repro.Backend
	workers    int
	lane       int
	span       int
	rounds     []map[string]float64
	setup      []float64
	lat        hist          // every measured op sample of the run
	ops        uint64        // ops completed in every timed window of the run
	elapsed    time.Duration // the wall time of those windows
	attempted  uint64
	failed     uint64
	violations []string
}

// runBench runs cfg.rounds rounds of every chosen workload. Rounds
// interleave round-robin across workloads, so host drift hits every
// workload alike.
func runBench(cfg config, chosen []*spec, tr *tracer) (report, error) {
	var wls []*wl
	for i, s := range chosen {
		b, err := s.catalogEntry()
		if err != nil {
			return report{}, err
		}
		wls = append(wls, &wl{s: s, backend: b, workers: s.workers(cfg.nproc), lane: i, span: tr.begin("workload", 0, i)})
	}
	for r := range cfg.rounds {
		for _, w := range wls {
			w.round(cfg, tr, r)
		}
	}
	rep := report{Provenance: collectProvenance(cfg)}
	for _, w := range wls {
		tr.end(w.span)
		rep.Results = append(rep.Results, w.result(cfg))
	}
	return rep, nil
}

// leaseBudget replaces the flat-combining lease budget on the objects
// the benchmark drives. The default (2^16 unchanged observations, about
// a millisecond of spinning) lets a waiter depose a combiner that is
// alive but descheduled, and a request in flight is then applied twice
// or lost: on a 2-vCPU host most 1 s rounds of queue-contended fail the
// conservation check with the default. No live combiner stalls for
// 2^30 observations, so the workload keeps the crash-free protocol, and
// a lease steal fails the round (see check).
const leaseBudget = 1 << 30

func (w *wl) options() []repro.Option {
	return []repro.Option{repro.WithCapacity(containerCap), repro.WithProcs(w.workers)}
}

// drive builds a fresh object through repro.Drive, with the lease
// budget raised where the object has one.
func (w *wl) drive() repro.Ops {
	ops := repro.Drive(w.backend, w.options()...)
	if c, ok := repro.Unwrap(ops.Instance).(interface{ SetLeaseBudget(int) }); ok {
		c.SetLeaseBudget(leaseBudget)
	}
	return ops
}

// direct builds the Backend.Direct baseline. Backend.Direct hides its
// object, so the lease budget cannot reach it; for the flat-combining
// queue the benchmark builds the same closures over the concrete
// methods of a queue whose budget is raised.
func (w *wl) direct() repro.Ops {
	if q, ok := repro.Unwrap(w.drive().Instance).(*queue.Combining[uint64]); ok {
		return repro.Ops{N: 2, Instance: q, Do: func(pid, op int, v uint64) (uint64, error) {
			if op == 0 {
				return 0, q.Enqueue(pid, v)
			}
			return q.Dequeue(pid)
		}}
	}
	return w.backend.Direct(w.options()...)
}

// round builds a fresh object through repro.Drive, measures it and
// checks it. A traced round also measures the same op stream with op
// spans on and through Backend.Direct, and times the primitives.
func (w *wl) round(cfg config, tr *tracer, r int) {
	rs := tr.begin("round", w.span, w.lane)
	defer tr.end(rs)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	d, err := w.trial(cfg, tr, r, rs, w.drive, reps, cfg.trace)
	if err != nil {
		w.violations = append(w.violations, fmt.Sprintf("round %d: %v", r, err))
		return
	}
	sp := tr.begin("verify", rs, w.lane)
	members := w.check(d.t, fmt.Sprintf("round %d", r))
	tr.end(sp)
	w.setup = append(w.setup, d.setup...)
	w.lat.merge(&d.measure.lat)
	w.ops += d.measure.ops
	w.elapsed += d.measure.elapsed
	vals := map[string]float64{
		"ops_per_s":             d.measure.opsPerSec(),
		"p50_ns":                d.measure.lat.quantile(0.50),
		"p99_ns":                d.measure.lat.quantile(0.99),
		"p999_ns":               d.measure.lat.quantile(0.999),
		"latency_samples":       float64(d.measure.lat.n),
		"live_heap_bytes":       float64(d.heap),
		"repro.drive_ns_per_op": d.measure.nsPerOp(w.workers),
	}
	layerMetrics(d.before, d.after, d.measure.ops, vals)
	setMetrics(d.t.ops, members, vals)
	if e := vals["set.size_error"]; e != 0 {
		w.violations = append(w.violations, fmt.Sprintf("round %d: Size() differs from the verified member count by %g", r, e))
	}
	if cfg.trace {
		vals["trace.overhead_ratio"] = 1 - ratio(d.traced.opsPerSec(), d.measure.opsPerSec())
		sp := tr.begin("direct", rs, w.lane)
		dd, err := w.trial(cfg, nil, r, 0, w.direct, 1, false)
		if err == nil {
			w.check(dd.t, fmt.Sprintf("round %d, Direct", r))
		} else {
			w.violations = append(w.violations, fmt.Sprintf("round %d, Direct: %v", r, err))
		}
		tr.end(sp)
		vals["repro.direct_ns_per_op"] = dd.measure.nsPerOp(w.workers)
		vals["repro.contract_ns_per_op"] = vals["repro.drive_ns_per_op"] - vals["repro.direct_ns_per_op"]
		sp = tr.begin("prims", rs, w.lane)
		primMetrics(w.s, cfg.seed, r, cfg.prims, vals)
		tr.end(sp)
	}
	w.rounds = append(w.rounds, vals)
}

// check verifies a trial's object at quiescence and fails the round on
// a lease steal, which the raised budget rules out for a live combiner.
// It returns the set's verified member count.
func (w *wl) check(t *trial, where string) (members int) {
	members, err := t.verify()
	if err != nil {
		w.violations = append(w.violations, fmt.Sprintf("%s: %v", where, err))
	}
	if n := readCounters(t.ops).comb.Steals; n != 0 {
		w.violations = append(w.violations, fmt.Sprintf("%s: %d combiner lease steal(s)", where, n))
	}
	return members
}

// trialOut is what one trial measured.
type trialOut struct {
	t             *trial
	setup         []float64
	measure       phaseResult
	traced        phaseResult
	before, after counters
	heap          uint64
}

// trial builds the object with build (reps times, keeping the last),
// collects garbage, warms up, runs the measured phase (and with traced
// a second one recording op spans), and reads the live heap the trial
// added: the object plus the workers' tallies and histograms. Every
// phase replays the round's op streams. The error reports a failed
// setup; the caller checks the object.
func (w *wl) trial(cfg config, tr *tracer, round, parent int, build func() repro.Ops, reps int, traced bool) (trialOut, error) {
	var out trialOut
	base := heapAfterGC(nil)
	sp := tr.begin("setup", parent, w.lane)
	ops, took, err := setup(w.s, build, reps)
	tr.end(sp)
	out.setup = took
	if err != nil {
		return out, err
	}
	t := newTrial(w.s, w.workers, ops)
	out.t = t
	runtime.GC()

	sp = tr.begin("warmup", parent, w.lane)
	t.run(cfg.warmup, cfg.seed, round, nil)
	tr.end(sp)

	out.before = readCounters(ops)
	sp = tr.begin("measure", parent, w.lane)
	out.measure = t.run(cfg.window, cfg.seed, round, nil)
	tr.end(sp)
	out.after = readCounters(ops)

	if traced {
		sp = tr.begin("measure", parent, w.lane)
		bufs := tr.opBuffers(sp, w.lane)
		out.traced = t.run(cfg.window, cfg.seed, round, bufs)
		tr.end(sp)
		tr.keepOps(bufs)
	}
	out.heap = heapAfterGC(t) - base
	n, failed := t.attempted()
	w.attempted += n
	w.failed += failed
	return out, nil
}

// result reduces the rounds to one value per metric: the median over
// rounds, except that setup_s is the median over every build of the
// run, and ops_per_s and the latency metrics are taken over every timed
// window of the run. Neighbours on a shared host slow the workers in
// bursts whose share of the time drifts over seconds to minutes; the
// run's total ops over its total time follows that share more smoothly
// than the median of per-round values does. The median of per-round
// percentiles also jumps with the share of rounds that fall into a lock
// convoy on stack-contended.
func (w *wl) result(cfg config) result {
	r := result{
		Workload: w.s.name, Backend: w.backend.Name, Workers: w.workers,
		Correct: len(w.violations) == 0, Violations: w.violations,
		Attempted: w.attempted, Failed: w.failed,
	}
	defs := append(append([]metricDef{}, endToEnd...), untracedExtra...)
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		var vs []float64
		for _, rv := range w.rounds {
			vs = append(vs, rv[d.name])
		}
		v := median(vs)
		switch d.name {
		case "setup_s":
			vs = w.setup
			v = median(vs)
		case "ops_per_s":
			v = ratio(float64(w.ops), w.elapsed.Seconds())
		case "fail_ratio":
			vs, v = nil, ratio(float64(w.failed), float64(w.attempted))
		case "latency_samples":
			v = float64(w.lat.n)
		case "p50_ns":
			v = w.lat.quantile(0.50)
		case "p99_ns":
			v = w.lat.quantile(0.99)
		case "p999_ns":
			v = w.lat.quantile(0.999)
		}
		r.Metrics = append(r.Metrics, metricOut{Name: d.name, Value: v, Unit: d.unit, Rounds: vs})
	}
	return r
}
