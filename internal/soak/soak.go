package soak

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// FaultKind is one entry type of a fault plan.
type FaultKind int

// The injectable faults. Kinds a backend cannot express degrade
// rather than vanish: CrashMidOp and CombinerKill fall back to
// StopCrash when the backend has no Abandon/ArmCrash seam, and Morph
// falls back to Stall on non-adaptive backends, so every plan injects
// its full fault count on every backend.
const (
	// FaultCrashMidOp publishes one update via Ops.Abandon and kills
	// the victim: a §5 process crash with an operation in flight.
	FaultCrashMidOp FaultKind = iota
	// FaultCombinerKill arms Ops.ArmCrash so the victim dies inside
	// its next combining pass with the lease held; survivors must
	// depose it.
	FaultCombinerKill
	// FaultStopCrash kills the victim between operations — the crash
	// every backend can absorb.
	FaultStopCrash
	// FaultStall turns the victim into a §5 slow process: it keeps
	// operating, but sleeps long pauses between operations until the
	// drain.
	FaultStall
	// FaultMorph forces an adaptive meta-backend one rung around its
	// ladder mid-traffic.
	FaultMorph
)

// String names the kind for logs and fault-plan dumps.
func (k FaultKind) String() string {
	switch k {
	case FaultCrashMidOp:
		return "crash-mid-op"
	case FaultCombinerKill:
		return "combiner-kill"
	case FaultStopCrash:
		return "stop-crash"
	case FaultStall:
		return "stall"
	case FaultMorph:
		return "morph"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultSpec schedules one fault at a fraction of the run's duration.
type FaultSpec struct {
	// At is the injection instant as a fraction of Config.Duration,
	// in (0, 1).
	At float64
	// Kind is the fault to inject (possibly degraded, see FaultKind).
	Kind FaultKind
}

// DefaultFaultPlan is the standard schedule: a mid-op crash at 25%, a
// combiner kill at 45%, a slow-process stall at 65%, and a forced
// morph at 85% — four faults, so even a backend that degrades every
// kind still absorbs at least the three crashes/stalls the E24
// fault-recovery gate demands.
func DefaultFaultPlan() []FaultSpec {
	return []FaultSpec{
		{At: 0.25, Kind: FaultCrashMidOp},
		{At: 0.45, Kind: FaultCombinerKill},
		{At: 0.65, Kind: FaultStall},
		{At: 0.85, Kind: FaultMorph},
	}
}

// DefaultBackends is the catalog slice a soak run covers when none is
// chosen: one lease-takeover combining backend (both crash seams), one
// pooled backend (arena drift under churn), and one adaptive
// meta-backend (forced morphs land on a real ladder) — the coverage
// the E24 strict gate requires.
func DefaultBackends() []string {
	return []string{"queue/combining", "stack/treiber", "set/adaptive"}
}

// Config tunes one soak run over one backend. The zero value is
// usable: withDefaults fills every field.
type Config struct {
	// Duration is the wall-clock traffic window (default 10s); the
	// drain and final audit run after it.
	Duration time.Duration
	// Window is the metrics window (default Duration/10, clamped to
	// [200ms, 5s]); each window emits one Row.
	Window time.Duration
	// Workers is the number of session lanes — concurrent client
	// pids serving sessions (default 8, min 2).
	Workers int
	// Seed derives every lane's deterministic op stream (default
	// 0x5eed). Timing, and therefore interleaving, still varies.
	Seed uint64
	// ArrivalMean is the mean exponential gap between one lane's
	// sessions (default 200µs); ThinkMean the mean think time between
	// a session's ops (default 100µs); SessionOps the geometric mean
	// session length (default 48 ops).
	ArrivalMean time.Duration
	ThinkMean   time.Duration
	SessionOps  float64
	// KeyRange bounds set keys (default 512); ZipfS skews them
	// (default 1.1; 0 would mean uniform but is defaulted away —
	// pass a negative value for explicit uniform).
	KeyRange int
	ZipfS    float64
	// Write and Erase are the op-class mix (read is the remainder;
	// for stacks/queues both erase and read consume). Defaults
	// 0.5/0.3.
	Write, Erase float64
	// StallDeadline is the watchdog bound on one in-flight operation
	// (default 1s).
	StallDeadline time.Duration
	// Faults is the fault plan (default DefaultFaultPlan). Each entry
	// owns one victim pid beyond the Workers lanes.
	Faults []FaultSpec
	// Capacity bounds bounded backends (default 1024).
	Capacity int
	// ExtraOpts are appended to the constructor options.
	ExtraOpts []repro.Option
	// Stop, when non-nil, triggers the graceful drain early when
	// closed — cmd/soak wires SIGTERM/SIGINT to it.
	Stop <-chan struct{}
	// Log, when non-nil, receives progress lines (window summaries,
	// fault injections, watchdog flags).
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Window <= 0 {
		c.Window = c.Duration / 10
		if c.Window < 200*time.Millisecond {
			c.Window = 200 * time.Millisecond
		}
		if c.Window > 5*time.Second {
			c.Window = 5 * time.Second
		}
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	if c.ArrivalMean == 0 {
		c.ArrivalMean = 200 * time.Microsecond
	}
	if c.ThinkMean == 0 {
		c.ThinkMean = 100 * time.Microsecond
	}
	if c.SessionOps == 0 {
		c.SessionOps = 48
	}
	if c.KeyRange <= 0 {
		c.KeyRange = 512
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Write == 0 && c.Erase == 0 {
		c.Write, c.Erase = 0.5, 0.3
	}
	if c.StallDeadline <= 0 {
		c.StallDeadline = time.Second
	}
	if c.Faults == nil {
		c.Faults = DefaultFaultPlan()
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	return c
}

// morpher is the adaptive extension FaultMorph needs, reached through
// repro.Unwrap.
type morpher interface {
	MorphTo(pid, dst int) bool
	Rung() string
	Rungs() []string
}

// pooled is the allocation extension the leak audit scrapes. Rows read
// the arena size, which is safe under load; PoolStats is exact only at
// quiescence, so only the drain audit reads it.
type pooled interface {
	PoolStats() repro.PoolStats
	PoolArenaSize() int
}

// capabilityOf walks the adapter layers one Unwrap hop at a time and
// returns the first layer exposing the extension T. A full
// repro.Unwrap would overshoot: an adaptive backend is itself an
// Unwrapper (peeling to its current rung), so the adaptive layer's
// own extensions live mid-stack, not at the bottom.
func capabilityOf[T any](x any) (T, bool) {
	for {
		if c, ok := x.(T); ok {
			return c, true
		}
		u, ok := x.(repro.Unwrapper)
		if !ok {
			var zero T
			return zero, false
		}
		x = u.Unwrap()
	}
}

// lane is one pid's watchdog heartbeat: opStart holds the in-flight
// operation's start (ns since engine start, min 1), 0 when idle. The
// padding keeps neighbouring lanes off one cache line.
type lane struct {
	opStart atomic.Int64
	_       [56]byte
}

type engine struct {
	cfg  Config
	b    repro.Backend
	drv  repro.Ops
	cons *scenario.Conservation
	zipf *workload.Zipf
	pool pooled // nil when the backend has no pool

	start time.Time
	drain chan struct{}
	lanes []lane // workers only: victims model §5 crashed/slow processes

	attempted, okOps, sessions atomic.Uint64
	faultsInjected             atomic.Uint64
	faultsRecovered            atomic.Uint64
	stalls                     atomic.Uint64
	pendingFaultNS             atomic.Int64
	worstRecoveryNS            atomic.Int64
	hist                       *metrics.Histogram

	wg    sync.WaitGroup // workers and victim goroutines
	logMu sync.Mutex     // logf runs from several goroutines
}

// Run soaks one backend under cfg and returns the windowed rows plus
// the final summary/drain row (Window == -1). The conservation audit
// verdicts ride in Row.Audit; Evaluate turns rows into gate verdicts.
func Run(b repro.Backend, cfg Config) []Row {
	cfg = cfg.withDefaults()
	procs := cfg.Workers + len(cfg.Faults) // one victim pid per fault
	drv := repro.Drive(b, append([]repro.Option{
		repro.WithProcs(procs), repro.WithCapacity(cfg.Capacity)}, cfg.ExtraOpts...)...)

	e := &engine{
		cfg:   cfg,
		b:     b,
		drv:   drv,
		cons:  scenario.NewConservation(b.Kind, cfg.KeyRange),
		drain: make(chan struct{}),
		lanes: make([]lane, cfg.Workers),
		hist:  &metrics.Histogram{},
	}
	if b.Kind == repro.KindSet && cfg.ZipfS > 0 {
		e.zipf = workload.NewZipf(cfg.ZipfS, cfg.KeyRange)
	}
	e.pool, _ = capabilityOf[pooled](drv.Instance)
	e.start = time.Now()

	// The clock: duration elapses or the external stop closes — either
	// way the drain begins exactly once.
	go func() {
		t := time.NewTimer(cfg.Duration)
		defer t.Stop()
		select {
		case <-t.C:
		case <-cfg.Stop: // nil channel blocks forever — duration rules
		}
		close(e.drain)
	}()

	for pid := 0; pid < cfg.Workers; pid++ {
		e.wg.Add(1)
		go e.worker(pid)
	}
	watchStop := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go e.watchdog(watchStop, &watchWG)
	go e.injector()

	rows := e.collect()

	// Graceful drain: arrivals have stopped (drain is closed — collect
	// only returns then); every lane flushes its in-flight op and
	// joins, the watchdog observes the flush, then the quiescent audit
	// has the object to itself.
	e.wg.Wait()
	close(watchStop)
	watchWG.Wait()
	rows = append(rows, e.summaryRow())
	return rows
}

// laneSeed derives one pid's deterministic stream seed.
func laneSeed(seed uint64, pid int) uint64 {
	return workload.NewRNG(seed ^ 0xa24baed4963ee407*uint64(pid+1)).Uint64()
}

// drained reports whether the graceful drain has begun.
func (e *engine) drained() bool {
	select {
	case <-e.drain:
		return true
	default:
		return false
	}
}

// pace idles for d, returning false once the drain begins. Short
// pauses sleep through (bounding drain latency by 2ms); longer ones
// wake on the drain channel.
func (e *engine) pace(d time.Duration) bool {
	if d <= 0 {
		return !e.drained()
	}
	if d <= 2*time.Millisecond {
		time.Sleep(d)
		return !e.drained()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-e.drain:
		return false
	}
}

// sinceStartNS stamps now against the engine clock, min 1 (0 means
// idle/unset everywhere).
func (e *engine) sinceStartNS() int64 {
	ns := time.Since(e.start).Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	return ns
}

func (e *engine) logf(format string, args ...any) {
	if e.cfg.Log == nil {
		return
	}
	e.logMu.Lock()
	defer e.logMu.Unlock()
	fmt.Fprintf(e.cfg.Log, format+"\n", args...)
}

// worker is one session lane: an open-loop arrival clock draws the
// next session's start, a geometric draw its length, exponential
// think times its pacing. A lane that falls behind its arrival clock
// starts the next session immediately (open-loop: the backlog shows
// up as latency, the lane never skips sessions to hide it).
func (e *engine) worker(pid int) {
	defer e.wg.Done()
	rng := workload.NewRNG(laneSeed(e.cfg.Seed, pid))
	i := 0
	var clock time.Duration
	for !e.drained() {
		clock += rng.ExpDuration(e.cfg.ArrivalMean)
		now := time.Since(e.start)
		if wait := clock - now; wait > 0 {
			if !e.pace(wait) {
				return
			}
		} else {
			clock = now
		}
		n := rng.GeometricLen(e.cfg.SessionOps)
		for k := 0; k < n; k++ {
			e.doOp(pid, rng, &i, true)
			if e.drained() {
				// In-flight op flushed; the session ends here.
				e.sessions.Add(1)
				return
			}
			if k+1 < n && !e.pace(rng.ExpDuration(e.cfg.ThinkMean)) {
				e.sessions.Add(1)
				return
			}
		}
		e.sessions.Add(1)
	}
}

// doOp draws and executes one operation on behalf of pid. Victims
// (record=false) only feed the conservation state: the traffic
// counters, the latency histogram, and the fault-recovery tracker
// measure the client sessions, and a fault counts as recovered only
// when a *worker* completes an operation after it — victims are the
// fault model, not the service.
func (e *engine) doOp(pid int, rng *workload.RNG, i *int, record bool) {
	class := scenario.DrawClass(e.cfg.Write, e.cfg.Erase, rng)
	op, v := scenario.KindOp(e.b.Kind, class, e.cfg.KeyRange, e.zipf, rng, pid, *i)
	*i++
	t0 := time.Now()
	if pid < len(e.lanes) {
		e.lanes[pid].opStart.Store(e.sinceStartNS())
	}
	got, err := e.drv.Do(pid, op, v)
	if pid < len(e.lanes) {
		e.lanes[pid].opStart.Store(0)
	}
	if record {
		e.hist.Record(time.Since(t0))
		e.attempted.Add(1)
	}
	if err != nil {
		return
	}
	e.cons.Account(op, got, v)
	if !record {
		return
	}
	e.okOps.Add(1)
	if p := e.pendingFaultNS.Load(); p != 0 && e.pendingFaultNS.CompareAndSwap(p, 0) {
		rec := e.sinceStartNS() - p
		if rec < 1 {
			rec = 1
		}
		e.faultsRecovered.Add(1)
		core.StoreMaxInt64(&e.worstRecoveryNS, rec)
	}
}

// markFault stamps one injected (landed) fault; the next successful
// worker operation closes it and records the recovery latency.
func (e *engine) markFault(kind FaultKind, victim int) {
	e.faultsInjected.Add(1)
	e.pendingFaultNS.Store(e.sinceStartNS())
	e.logf("[%s] fault %s landed (victim pid %d) at %v",
		e.b.Name, kind, victim, time.Since(e.start).Round(time.Millisecond))
}

// injector walks the fault plan in schedule order; fault i owns
// victim pid Workers+i, so no victim ever violates the one-client-
// per-pid discipline and no crashed pid is ever reused.
func (e *engine) injector() {
	faults := append([]FaultSpec(nil), e.cfg.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	for idx, f := range faults {
		at := time.Duration(f.At * float64(e.cfg.Duration))
		if wait := at - time.Since(e.start); wait > 0 && !e.pace(wait) {
			return
		}
		if e.drained() {
			return
		}
		e.inject(f.Kind, e.cfg.Workers+idx)
	}
}

// inject dispatches one fault, degrading kinds the backend cannot
// express (see FaultKind).
func (e *engine) inject(kind FaultKind, victim int) {
	switch kind {
	case FaultCrashMidOp:
		if e.drv.Abandon == nil {
			e.inject(FaultStopCrash, victim)
			return
		}
		e.wg.Add(1)
		go e.crashVictim(victim, true)
	case FaultCombinerKill:
		if e.drv.ArmCrash == nil {
			e.inject(FaultStopCrash, victim)
			return
		}
		e.wg.Add(1)
		go e.combinerVictim(victim)
	case FaultStopCrash:
		e.wg.Add(1)
		go e.crashVictim(victim, false)
	case FaultStall:
		e.wg.Add(1)
		go e.stallVictim(victim)
	case FaultMorph:
		m, ok := capabilityOf[morpher](e.drv.Instance)
		if !ok {
			e.inject(FaultStall, victim)
			return
		}
		e.morph(m, victim)
	}
}

// victimOps is how many operations a crash victim performs before
// dying: enough to be entangled with live traffic.
const victimOps = 32

// crashVictim runs a short burst of traffic and dies — mid-operation
// (one update published via Abandon, response never collected) when
// midOp, between operations otherwise. The pid is never used again.
func (e *engine) crashVictim(victim int, midOp bool) {
	defer e.wg.Done()
	rng := workload.NewRNG(laneSeed(e.cfg.Seed, victim))
	i := 0
	for n := 0; n < victimOps && !e.drained(); n++ {
		e.doOp(victim, rng, &i, false)
	}
	kind := FaultStopCrash
	if midOp {
		// Publish an update (reads have nothing to abandon) and die
		// without collecting the response; its effect is uncertain, so
		// it books into the conservation bracket.
		op, v := scenario.KindOp(e.b.Kind, scenario.ClassWrite, e.cfg.KeyRange, e.zipf, rng, victim, i)
		if e.drv.Abandon(victim, op, v) {
			e.cons.Book(op, v)
		}
		kind = FaultCrashMidOp
	}
	e.markFault(kind, victim)
}

// combinerVictim arms the one-shot combiner crash and operates until
// it dies inside a combining pass with the lease held (runtime.Goexit
// unwinds it out of Do, so the landing is detected in the defer). The
// loop is deliberately unpaced: the crash fires only when the victim
// actually serves a combining pass, and on a lightly loaded service
// paced ops would ride the uncontended shortcut forever — the victim
// must raise the contention that routes it onto the combining path.
// Its ops feed only the conservation state, so the burst never shows
// up as session traffic. The in-flight op at the crash was published
// to a slot and stays pending — abandoned, effect uncertain.
func (e *engine) combinerVictim(victim int) {
	inOp := false
	var curOp int
	var curV uint64
	defer func() {
		if inOp {
			e.cons.Book(curOp, curV)
			e.markFault(FaultCombinerKill, victim)
		} else {
			// Never became the combiner before the drain: the arm stays
			// pending forever on a pid that will never run again — a
			// stop-crash in effect.
			e.markFault(FaultStopCrash, victim)
		}
		e.wg.Done()
	}()
	e.drv.ArmCrash(victim, 1)
	rng := workload.NewRNG(laneSeed(e.cfg.Seed, victim))
	i := 0
	for !e.drained() {
		class := scenario.DrawClass(e.cfg.Write, e.cfg.Erase, rng)
		op, v := scenario.KindOp(e.b.Kind, class, e.cfg.KeyRange, e.zipf, rng, victim, i)
		i++
		inOp, curOp, curV = true, op, v
		got, err := e.drv.Do(victim, op, v)
		inOp = false
		if err == nil {
			e.cons.Account(op, got, v)
		}
	}
}

// stallVictim is the §5 slow process: it keeps operating correctly
// but pauses long stretches between operations until the drain. The
// watchdog does not monitor it (slowness between ops is its modeled
// behavior); what the gates check is that the workers never stall
// because of it.
func (e *engine) stallVictim(victim int) {
	defer e.wg.Done()
	e.markFault(FaultStall, victim)
	rng := workload.NewRNG(laneSeed(e.cfg.Seed, victim))
	i := 0
	pause := e.cfg.StallDeadline / 10
	if pause < 10*time.Millisecond {
		pause = 10 * time.Millisecond
	}
	for !e.drained() {
		e.doOp(victim, rng, &i, false)
		if !e.pace(pause) {
			return
		}
	}
}

// morph forces the adaptive ladder one rung around, serially from the
// injector goroutine on the fault's own pid.
func (e *engine) morph(m morpher, victim int) {
	rungs := m.Rungs()
	cur := m.Rung()
	dst := 0
	for r, name := range rungs {
		if name == cur {
			dst = (r + 1) % len(rungs)
			break
		}
	}
	ok := m.MorphTo(victim, dst)
	e.markFault(FaultMorph, victim)
	e.logf("[%s] forced morph %s -> %s (ok=%v)", e.b.Name, cur, rungs[dst], ok)
}

// watchdog flags worker operations in flight past the deadline, once
// per operation instance. Victims are exempt: a crashed process
// wedged forever is the fault model, not a finding.
func (e *engine) watchdog(stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	period := e.cfg.StallDeadline / 4
	if period > 250*time.Millisecond {
		period = 250 * time.Millisecond
	}
	if period < time.Millisecond {
		period = time.Millisecond
	}
	deadline := e.cfg.StallDeadline.Nanoseconds()
	flagged := make([]int64, len(e.lanes))
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := e.sinceStartNS()
			for pid := range e.lanes {
				s := e.lanes[pid].opStart.Load()
				if s != 0 && now-s > deadline && flagged[pid] != s {
					flagged[pid] = s
					e.stalls.Add(1)
					e.logf("[%s] WATCHDOG: pid %d op in flight for %v (deadline %v)",
						e.b.Name, pid, time.Duration(now-s), e.cfg.StallDeadline)
				}
			}
		}
	}
}

// memSnapshot is one ReadMemStats scrape.
func memSnapshot() (heap uint64, gc uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, uint64(ms.NumGC)
}

// collect emits one Row per elapsed window until the drain begins.
// Latency quantiles come from Snapshot+Delta over the shared
// histogram — live scraping, no pause, no scratch merge.
func (e *engine) collect() []Row {
	var rows []Row
	prevHist := e.hist.Snapshot()
	var prevOps, prevOK uint64
	winStart := time.Now()
	window := 0
	tick := time.NewTicker(e.cfg.Window)
	defer tick.Stop()
	for {
		select {
		case <-e.drain:
			return rows
		case <-tick.C:
			snap := e.hist.Snapshot()
			delta := snap.Delta(prevHist)
			prevHist = snap
			ops, ok := e.attempted.Load(), e.okOps.Load()
			dur := time.Since(winStart)
			winStart = time.Now()
			r := e.baseRow(window, dur, ops-prevOps, ok-prevOK, delta)
			prevOps, prevOK = ops, ok
			if err := e.liveAudit(); err != nil {
				r.Audit = fmt.Sprintf("FAIL: %v", err)
			}
			rows = append(rows, r)
			e.logf("[%s] window %d: %.0f ops/s, p99 %v, faults %d/%d recovered, stalls %d, heap %dB, audit %s",
				e.b.Name, window, r.OpsPerSec, r.P99, r.Recovered, r.Faults, r.Stalls, r.HeapBytes, r.Audit)
			window++
		}
	}
}

// liveAudit is the quiescence-free leak check: the conservation
// bracket's one-sided inequality (with in-flight slack).
func (e *engine) liveAudit() error {
	procs := e.cfg.Workers + len(e.cfg.Faults)
	return e.cons.LiveCheck(procs)
}

// baseRow assembles the shared columns of a window or summary row.
func (e *engine) baseRow(window int, dur time.Duration, ops, okOps uint64, h *metrics.Histogram) Row {
	heap, gc := memSnapshot()
	r := Row{
		Backend:    e.b.Name,
		Window:     window,
		DurMS:      float64(dur.Microseconds()) / 1000,
		Ops:        ops,
		OKOps:      okOps,
		Sessions:   e.sessions.Load(),
		P50:        h.Percentile(50),
		P99:        h.Percentile(99),
		P999:       h.Percentile(99.9),
		Faults:     e.faultsInjected.Load(),
		Recovered:  e.faultsRecovered.Load(),
		RecoveryNS: e.worstRecoveryNS.Load(),
		Stalls:     e.stalls.Load(),
		HeapBytes:  heap,
		GCCycles:   gc,
		PoolAllocs: -1,
		Audit:      "ok",
	}
	if dur > 0 {
		r.OpsPerSec = float64(ops) / dur.Seconds()
	}
	if e.pool != nil {
		r.PoolAllocs = int64(e.pool.PoolArenaSize())
	}
	return r
}

// summaryRow is the drain-time row (Window == -1): whole-run totals
// and quantiles, and the quiescent audit as the verdict: conservation
// plus the pool's no-drop invariant.
func (e *engine) summaryRow() Row {
	r := e.baseRow(-1, time.Since(e.start), e.attempted.Load(), e.okOps.Load(), e.hist)
	if err := e.cons.Verify(e.drv); err != nil {
		r.Audit = fmt.Sprintf("FAIL: %v", err)
	} else if e.pool != nil {
		if st := e.pool.PoolStats(); st.Drops > 0 {
			r.Audit = fmt.Sprintf("FAIL: pool dropped %d handles", st.Drops)
		}
	}
	e.logf("[%s] drain: %d ops (%d ok) over %d sessions, %d/%d faults recovered (worst %v), stalls %d, audit %s",
		e.b.Name, r.Ops, r.OKOps, r.Sessions, r.Recovered, r.Faults,
		time.Duration(r.RecoveryNS), r.Stalls, r.Audit)
	return r
}
