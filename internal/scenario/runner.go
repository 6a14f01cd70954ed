package scenario

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Options tunes one runner invocation. The zero value runs the
// scenario at full size.
type Options struct {
	// Scale multiplies every phase's op budget and arrival interval
	// (0 = 1.0); quick/CI runs shrink with it. Budgets floor at
	// minOps per process so a heavily scaled run still says
	// something. The same Scale must be used when comparing runs —
	// it is part of the deterministic stream identity.
	Scale float64
	// Record captures the exact operation streams into
	// Result.OpStream (framed per phase x pid), for the
	// deterministic-replay tests. Off for measurement runs.
	Record bool
	// Capacity bounds bounded backends (0 = 1024).
	Capacity int
	// ExtraOpts are appended to the constructor options the runner
	// passes to repro.Drive — E23 uses it to hand the adaptive
	// meta-backends quick-scaled thresholds; backends that do not
	// consume an option ignore it.
	ExtraOpts []repro.Option
	// AfterPhase, when set, runs at the quiescent point after each
	// phase's processes have joined, with the phase index, its name,
	// and the driven backend (whose Instance field reaches the live
	// object). E23 samples per-phase adaptation stats here.
	AfterPhase func(phase int, name string, drv repro.Ops)
}

// minOps is the per-process floor a scaled phase budget never drops
// below: enough ops that quantiles and conservation stay meaningful.
const minOps = 32

// Result is one scenario run over one backend.
type Result struct {
	// Scenario and Backend name the cell this run measures.
	Scenario, Backend string
	// Procs is the scenario's maximum process count.
	Procs int
	// Ops is the number of operations attempted. It is a pure
	// function of (scenario, seed, Scale) — identical on every rerun
	// — because phase budgets are counts and crash points are fixed
	// indices, never wall-clock.
	Ops uint64
	// OKOps counts operations whose backend call returned nil
	// (timing-dependent on bounded/weak backends: full, empty, and
	// abort outcomes depend on the interleaving).
	OKOps uint64
	// Duration is the wall time across all phases, pacing idles
	// included (drain/verification excluded).
	Duration time.Duration
	// Hist holds every operation's latency (the backend call alone,
	// never pacing idles or injected pauses).
	Hist *metrics.Histogram
	// Conserved is nil when the post-run accounting holds: every
	// value popped/drained was pushed exactly once (stack, queue,
	// deque), or every key's membership equals its add/remove
	// balance (set). Crash and slow injection must not break it;
	// abandoned operations widen the check into a bracket (each may
	// or may not have taken effect) but never suspend it.
	Conserved error
	// Abandoned counts operations the §5 crash model left in flight:
	// published to the object (or killed mid-combining-pass by the
	// armed combiner crash) with the response never collected. Each
	// may or may not take effect — even after the run, a later
	// combiner can serve a dead process's pending slot — so the
	// conservation check brackets them instead of counting them.
	Abandoned uint64
	// SurvivorOps counts successful operations completed by
	// never-crashing processes after the first crash — the survivor-
	// progress number the E22 gate requires to stay positive.
	SurvivorOps uint64
	// RecoveryNS is the worst-process recovery latency: nanoseconds
	// from the latest crash to each surviving process's first
	// completed operation after it, maximized over processes. Zero
	// when nothing crashed.
	RecoveryNS int64
	// OpStream is the recorded op stream when Options.Record is set.
	OpStream []byte
	// Phases is the per-phase slice of the run: attempted ops and
	// wall time between the phase's spawn and join, in phase order.
	Phases []PhaseStat
}

// PhaseStat is one phase's slice of a Result.
type PhaseStat struct {
	Name     string
	Ops      uint64
	Duration time.Duration
}

// OpsPerSec is the phase's attempted-op throughput.
func (p PhaseStat) OpsPerSec() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return float64(p.Ops) / p.Duration.Seconds()
}

// OpsPerSec is the run's attempted-op throughput.
func (r Result) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// streamSeed derives the RNG seed of one process's stream in one
// phase: two splitmix64 steps over (seed, phase, pid) so neighboring
// pids and phases land in unrelated parts of the sequence space.
func streamSeed(seed uint64, phase, pid int) uint64 {
	s := workload.NewRNG(seed ^ 0x9e3779b97f4a7c15*uint64(phase+1)).Uint64()
	return workload.NewRNG(s ^ 0xa24baed4963ee407*uint64(pid+1)).Uint64()
}

// OpClass is the kind-independent operation class a workload mix
// draws; KindOp maps it onto a concrete backend op code. Exported so
// the soak engine shares the exact class-then-key stream shape the
// scenario suites pin.
type OpClass int

// The three classes every kind's op set collapses onto.
const (
	ClassWrite OpClass = iota
	ClassErase
	ClassRead
)

// DrawClass picks the next class from a (write, erase) mix, reads the
// remainder — the draw every phase mix and soak session makes.
func DrawClass(write, erase float64, rng *workload.RNG) OpClass {
	f := rng.Float64()
	switch {
	case f < write:
		return ClassWrite
	case f < write+erase:
		return ClassErase
	default:
		return ClassRead
	}
}

// draw picks the next class from the phase's mix (or role split).
func (p Phase) draw(pid int, rng *workload.RNG) OpClass {
	if p.Producers > 0 {
		if pid < p.Producers {
			return ClassWrite
		}
		return ClassErase
	}
	return DrawClass(p.Write, p.Erase, rng)
}

// Run executes sc against a fresh instance of backend b and returns
// the measured result. The op streams are fully determined by
// (sc, opt.Scale); only timing varies between invocations.
func Run(b repro.Backend, sc Scenario, opt Options) Result {
	scale := opt.Scale
	if scale <= 0 {
		scale = 1
	}
	capacity := opt.Capacity
	if capacity == 0 {
		capacity = 1024
	}
	procs := sc.MaxProcs()
	maxKeys := 0
	for _, p := range sc.Phases {
		if p := p.withDefaults(); p.KeyRange > maxKeys {
			maxKeys = p.KeyRange
		}
	}
	drv := repro.Drive(b, append([]repro.Option{
		repro.WithProcs(procs), repro.WithCapacity(capacity)}, opt.ExtraOpts...)...)

	res := Result{Scenario: sc.Name, Backend: b.Name, Procs: procs, Hist: &metrics.Histogram{}}

	// Conservation state: the exported bracket shared with the soak
	// engine. The abandoned bookings carry the crash model's
	// uncertainty: an abandoned op may or may not take effect, so
	// Verify brackets with them.
	cons := NewConservation(b.Kind, maxKeys)
	var attempted, okOps, abandoned, survivorOps atomic.Uint64
	var crashNS, recoveryNS atomic.Int64

	var streamMu sync.Mutex
	var streams []byte

	start := time.Now()
	// markCrash stamps the latest crash instant (ns since start, min
	// 1 so zero keeps meaning "nothing crashed yet").
	markCrash := func() {
		ns := time.Since(start).Nanoseconds()
		if ns < 1 {
			ns = 1
		}
		crashNS.Store(ns)
	}
	// book records one abandoned operation into the bracket state.
	book := func(op int, v uint64) {
		abandoned.Add(1)
		cons.Book(op, v)
	}
	for phaseIdx, phase := range sc.Phases {
		ph := phase.withDefaults()
		n := int(float64(ph.Ops) * scale)
		if n < minOps {
			n = minOps
		}
		interval := time.Duration(float64(ph.Interval) * scale)
		var zipf *workload.Zipf
		if ph.Dist == Zipfian {
			zipf = workload.NewZipf(ph.ZipfS, ph.KeyRange)
		}
		phaseStart := time.Now()
		// One histogram per worker, merged after the join: a shared one
		// would bump the same count/sum/max words on every op.
		hists := make([]*metrics.Histogram, ph.Procs)
		var wg sync.WaitGroup
		for pid := 0; pid < ph.Procs; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				hist := &metrics.Histogram{}
				hists[pid] = hist
				rng := workload.NewRNG(streamSeed(sc.Seed, phaseIdx, pid))
				crashAt := -1
				if ph.CrashPids > 0 && pid >= ph.Procs-ph.CrashPids {
					crashAt = int(ph.CrashFrac * float64(n))
					if ph.CrashCombiner && drv.ArmCrash != nil {
						drv.ArmCrash(pid, 1)
					}
				}
				slow := ph.SlowPids > 0 && pid >= ph.Procs-ph.SlowPids
				var buf []byte
				if opt.Record {
					buf = make([]byte, 0, n*9)
				}
				var myAttempted, myOK uint64
				inOp := false
				var curOp int
				var curV uint64
				recovered := false
				// All totals flush in the defer: the armed combiner
				// crash kills this goroutine inside drv.Do (the pass
				// exits via runtime.Goexit with the lease held), so
				// nothing after the loop is guaranteed to run.
				defer func() {
					if inOp {
						// Died inside Do: the op stays pending in its
						// slot — abandoned, effect uncertain.
						myAttempted++
						book(curOp, curV)
						markCrash()
					}
					attempted.Add(myAttempted)
					okOps.Add(myOK)
					if opt.Record {
						framed := make([]byte, 0, len(buf)+6)
						framed = append(framed, byte(phaseIdx), byte(pid))
						framed = binary.BigEndian.AppendUint32(framed, uint32(len(buf)))
						framed = append(framed, buf...)
						streamMu.Lock()
						streams = append(streams, framed...)
						streamMu.Unlock()
					}
				}()
				tick := 1
				for i := 0; i < n; i++ {
					if i == crashAt {
						if ph.CrashMidOp && drv.Abandon != nil {
							// §5 mid-operation crash: publish the next
							// update and die without collecting the
							// response. Reads have nothing to abandon.
							class := ph.draw(pid, rng)
							op, v := KindOp(b.Kind, class, ph.KeyRange, zipf, rng, pid, i)
							if opt.Record {
								buf = append(buf, byte(op))
								buf = binary.BigEndian.AppendUint64(buf, v)
							}
							if !(b.Kind == repro.KindSet && op == 2) && drv.Abandon(pid, op, v) {
								book(op, v)
							}
						}
						markCrash()
						break // crashed: no further steps, ever
					}
					if interval > 0 && i > 0 && i%ph.Burst == 0 {
						// Open-loop arrival clock: sleep to the next
						// tick; a backlogged process has already
						// missed it and continues immediately.
						target := phaseStart.Add(time.Duration(tick) * interval)
						tick++
						if d := time.Until(target); d > 0 {
							time.Sleep(d)
						}
					}
					class := ph.draw(pid, rng)
					op, v := KindOp(b.Kind, class, ph.KeyRange, zipf, rng, pid, i)
					if opt.Record {
						buf = append(buf, byte(op))
						buf = binary.BigEndian.AppendUint64(buf, v)
					}
					t0 := time.Now()
					inOp, curOp, curV = true, op, v
					got, err := drv.Do(pid, op, v)
					inOp = false
					hist.Record(time.Since(t0))
					myAttempted++
					if err == nil {
						myOK++
						cons.Account(op, got, v)
						if crashAt == -1 {
							if c := crashNS.Load(); c != 0 {
								survivorOps.Add(1)
								if !recovered {
									recovered = true
									d := time.Since(start).Nanoseconds() - c
									if d < 1 {
										d = 1
									}
									core.StoreMaxInt64(&recoveryNS, d)
								}
							}
						}
					}
					if slow && (i+1)%ph.SlowEvery == 0 {
						time.Sleep(ph.SlowPause)
					}
				}
			}(pid)
		}
		wg.Wait()
		for _, h := range hists {
			res.Hist.Merge(h)
		}
		// Every per-goroutine total has flushed (the defers ran before
		// Wait returned), so the attempted delta is this phase's ops.
		phaseOps := attempted.Load()
		for _, prev := range res.Phases {
			phaseOps -= prev.Ops
		}
		res.Phases = append(res.Phases, PhaseStat{
			Name: ph.Name, Ops: phaseOps, Duration: time.Since(phaseStart)})
		if opt.AfterPhase != nil {
			opt.AfterPhase(phaseIdx, ph.Name, drv)
		}
	}
	res.Duration = time.Since(start)
	res.Ops = attempted.Load()
	res.OKOps = okOps.Load()
	res.Abandoned = abandoned.Load()
	res.SurvivorOps = survivorOps.Load()
	res.RecoveryNS = recoveryNS.Load()
	if opt.Record {
		res.OpStream = canonicalize(streams, len(sc.Phases), procs)
	}
	res.Conserved = cons.Verify(drv)
	return res
}

// KindOp maps an op class onto the kind's op code and draws the
// value: sets draw a key in [0, keyRange) from zipf when non-nil
// (uniform otherwise), stacks and queues carry the collision-free
// (pid, i) encoding, deques pack (pid, i) into their uint32 domain
// and draw the end from the same stream. The RNG draw order per op is
// fixed (class, then key/side), which is what makes the recorded
// streams byte-stable.
func KindOp(kind string, class OpClass, keyRange int, zipf *workload.Zipf, rng *workload.RNG, pid, i int) (int, uint64) {
	switch kind {
	case repro.KindSet:
		var key uint64
		if zipf != nil {
			key = uint64(zipf.Next(rng))
		} else {
			key = uint64(rng.Intn(keyRange))
		}
		switch class {
		case ClassWrite:
			return 0, key
		case ClassErase:
			return 1, key
		default:
			return 2, key
		}
	case repro.KindDeque:
		side := int(rng.Uint64() & 1)
		v := uint64(pid)<<16 | uint64(i&0xffff)
		if class == ClassWrite {
			return side, v // 0 = pushL, 1 = pushR
		}
		return 2 + side, 0 // 2 = popL, 3 = popR
	default: // stack, queue: no read op; reads consume
		if class == ClassWrite {
			return 0, workload.Value(pid, i)
		}
		return 1, 0
	}
}

// isEmpty reports whether err is the kind's empty sentinel.
func isEmpty(err error) bool {
	return errors.Is(err, repro.ErrStackEmpty) ||
		errors.Is(err, repro.ErrQueueEmpty) ||
		errors.Is(err, repro.ErrDequeEmpty)
}

// retryContains asks membership at quiescence, absorbing a bounded
// number of (theoretically impossible solo) aborts.
func retryContains(drv repro.Ops, key uint64) (bool, error) {
	var err error
	for attempt := 0; attempt < 1000; attempt++ {
		var got uint64
		got, err = drv.Do(0, 2, key)
		if err == nil {
			return got == 1, nil
		}
	}
	return false, err
}

// canonicalize reorders the per-goroutine framed streams into (phase,
// pid) order so two runs of the same scenario compare byte-for-byte
// regardless of goroutine completion order.
func canonicalize(framed []byte, phases, procs int) []byte {
	index := make(map[[2]int][]byte)
	for off := 0; off+6 <= len(framed); {
		phase, pid := int(framed[off]), int(framed[off+1])
		n := int(binary.BigEndian.Uint32(framed[off+2 : off+6]))
		end := off + 6 + n
		index[[2]int{phase, pid}] = framed[off:end]
		off = end
	}
	out := make([]byte, 0, len(framed))
	for ph := 0; ph < phases; ph++ {
		for pid := 0; pid < procs; pid++ {
			out = append(out, index[[2]int{ph, pid}]...)
		}
	}
	return out
}
