package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/workload"
)

// spec is one workload: a catalog backend, a worker count and a traffic
// mix. Every caller of a concurrent object waits for its reply, so each
// worker runs a closed loop: draw an op, call Ops.Do, draw the next.
type spec struct {
	name    string
	backend string
	why     string
	solo    bool // one worker instead of nproc

	// Sets only: the key range, the add and remove shares in percent
	// (contains takes the rest), and the Zipf skew of the key draw (0
	// draws keys uniformly). Containers take a 50/50 push/pop mix.
	set       bool
	keys      int
	addPct    uint64
	removePct uint64
	zipf      float64
}

// Containers are bounded at containerCap and start half full, so both
// the empty and the full outcome stay rare; sets start with every even
// key present.
const (
	containerCap     = 1024
	containerPrefill = 512
)

var specs = []spec{
	{
		name: "stack-solo", backend: "stack/sensitive", solo: true,
		why: "One worker on the Figure 3 stack: the guard fast path, one Figure 1 attempt and boxed allocation do all the work; the lock and slow path do none.",
	},
	{
		name: "stack-contended", backend: "stack/sensitive",
		why: "nproc workers on the same stack: the guard slow path, the round-robin lock and retries dominate, so fast-path changes show in stack-solo and not here.",
	},
	{
		name: "queue-contended", backend: "queue/combining",
		why: "nproc workers on the flat-combining queue: publication list, combiner lease and batching; the guard and set layers are bypassed.",
	},
	{
		name: "set-read", backend: "set/hashset", set: true, keys: 1 << 16, addPct: 9, removePct: 1,
		why: "90% contains over 65,536 uniform keys, half present: the wait-free Contains path over bucket shortcuts dominates; pool and Size see 10% of ops.",
	},
	{
		name: "set-write", backend: "set/hashset", set: true, keys: 1 << 12, addPct: 45, removePct: 45, zipf: 1.1,
		why: "45/45/10 add/remove/contains, Zipf(1.1) over 4,096 keys: mark/unlink, pool Get/Put, tagged CAS and Size on every update, with hot-key contention.",
	},
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

func (s *spec) workers(nproc int) int {
	if s.solo {
		return 1
	}
	return nproc
}

// catalogEntry resolves the spec's backend in repro.Catalog().
func (s *spec) catalogEntry() (repro.Backend, error) {
	for _, b := range repro.Catalog() {
		if b.Name == s.backend {
			return b, nil
		}
	}
	return repro.Backend{}, fmt.Errorf("objbench: workload %s names unknown backend %s", s.name, s.backend)
}

// sentinels returns the kind's empty and full results: outcomes that
// complete an op, not failures.
func (s *spec) sentinels() (empty, full error) {
	switch {
	case s.set:
		return nil, nil
	case strings.HasPrefix(s.backend, repro.KindStack+"/"):
		return repro.ErrStackEmpty, repro.ErrStackFull
	default:
		return repro.ErrQueueEmpty, repro.ErrQueueFull
	}
}

// sampler returns the spec's Zipf key sampler, nil for uniform keys.
func (s *spec) sampler() *workload.Zipf {
	if s.zipf == 0 {
		return nil
	}
	return workload.NewZipf(s.zipf, s.keys)
}

// gen is one worker's op stream, a pure function of (seed, round,
// worker). Every phase of a round replays it from the start, so the
// Drive and Direct phases see identical ops.
type gen struct {
	s    *spec
	rng  workload.RNG
	zipf *workload.Zipf
	val  uint64 // next container value: worker in the high half, sequence in the low
}

func newGen(s *spec, z *workload.Zipf, seed uint64, round, pid int) gen {
	mixed := workload.NewRNG(seed ^ uint64(round)<<40 ^ uint64(pid)<<20).Uint64()
	return gen{s: s, rng: *workload.NewRNG(mixed), zipf: z, val: workload.Value(pid, 0)}
}

// next draws an op code (see repro.Ops) and its value or key.
func (g *gen) next() (op int, v uint64) {
	u := g.rng.Uint64()
	if !g.s.set {
		g.val++
		return int(u >> 63), g.val
	}
	if g.zipf != nil {
		v = uint64(g.zipf.Next(&g.rng))
	} else {
		v = (u & 0xffffffff) % uint64(g.s.keys)
	}
	switch pct := (u >> 32) % 100; {
	case pct < g.s.addPct:
		return 0, v
	case pct < g.s.addPct+g.s.removePct:
		return 1, v
	default:
		return 2, v
	}
}

// mix64 is the splitmix64 finalizer: containers conserve the count and
// the sum of mix64(v) over the values pushed and popped, so a lost,
// duplicated or corrupted value changes the sum.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// prefillValue is the i-th value a container is built with; the top
// bit keeps it apart from every worker's values.
func prefillValue(i int) uint64 { return 1<<63 | uint64(i) }

// tally is one worker's private bookkeeping for the end-of-round
// checks. Only its worker writes it while a phase runs, so the timed
// loop shares no counter with the other workers.
type tally struct {
	pushN, pushSum uint64
	popN, popSum   uint64
	net            []int32 // sets: successful adds minus successful removes, per key
	attempted      uint64
	failed         uint64
	_              [64]byte
}

// trial is one built object and the workers' state around it.
type trial struct {
	s           *spec
	procs       int
	ops         repro.Ops
	zipf        *workload.Zipf
	empty, full error
	tallies     []*tally
	hists       []*hist
}

func newTrial(s *spec, procs int, ops repro.Ops) *trial {
	t := &trial{s: s, procs: procs, ops: ops, zipf: s.sampler()}
	t.empty, t.full = s.sentinels()
	for range procs {
		tl := &tally{}
		if s.set {
			tl.net = make([]int32, s.keys)
		}
		t.tallies = append(t.tallies, tl)
		t.hists = append(t.hists, &hist{})
	}
	return t
}

// setup builds the object reps times, prefilling each build, and keeps
// the last one. It returns every build's duration: construction and
// prefill are what a user pays before the first op.
func setup(s *spec, build func() repro.Ops, reps int) (repro.Ops, []float64, error) {
	var ops repro.Ops
	var took []float64
	for range reps {
		start := time.Now()
		ops = build()
		if err := prefill(s, ops); err != nil {
			return ops, took, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return ops, took, nil
}

func prefill(s *spec, ops repro.Ops) error {
	if s.set {
		for k := 0; k < s.keys; k += 2 {
			if got, err := ops.Do(0, 0, uint64(k)); err != nil || got != 1 {
				return fmt.Errorf("prefill add(%d) = %d, %v", k, got, err)
			}
		}
		return nil
	}
	for i := range containerPrefill {
		if _, err := ops.Do(0, 0, prefillValue(i)); err != nil {
			return fmt.Errorf("prefill push %d: %w", i, err)
		}
	}
	return nil
}

// Every latEvery-th op is timed into the worker's histogram; every
// spanEvery-th op of a traced phase also becomes an op span.
const (
	latEvery  = 32
	spanEvery = 256
)

// phaseResult is one timed phase: completed ops, wall time, and the
// merged latency histogram.
type phaseResult struct {
	ops     uint64
	elapsed time.Duration
	lat     hist
}

func (p phaseResult) opsPerSec() float64 { return ratio(float64(p.ops), p.elapsed.Seconds()) }

// nsPerOp is the time one worker spends per op.
func (p phaseResult) nsPerOp(workers int) float64 {
	return ratio(float64(p.elapsed.Nanoseconds())*float64(workers), float64(p.ops))
}

// run drives the trial's workers for d. With spans non-nil (a traced
// phase) each worker also fills spans[pid] with sampled op spans, up to
// the buffer's capacity, so the loop allocates nothing.
func (t *trial) run(d time.Duration, seed uint64, round int, spans []*opBuf) phaseResult {
	var (
		stop  atomic.Bool
		start = make(chan struct{})
		wg    sync.WaitGroup
		done  = make([]uint64, t.procs)
	)
	for pid := range t.procs {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			<-start
			var buf *opBuf
			if spans != nil {
				buf = spans[pid]
			}
			done[pid] = t.work(pid, newGen(t.s, t.zipf, seed, round, pid), &stop, buf)
		}(pid)
	}
	began := time.Now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	res := phaseResult{elapsed: time.Since(began)}
	for pid, n := range done {
		res.ops += n
		res.lat.merge(t.hists[pid])
	}
	return res
}

// work is one worker's closed loop. It returns the ops it completed.
func (t *trial) work(pid int, g gen, stop *atomic.Bool, spans *opBuf) uint64 {
	tl, h := t.tallies[pid], t.hists[pid]
	*h = hist{}
	var n uint64
	for ; !stop.Load(); n++ {
		op, v := g.next()
		var got uint64
		var err error
		if n%latEvery == 0 {
			t0 := now()
			got, err = t.ops.Do(pid, op, v)
			t1 := now()
			h.record(uint64(t1 - t0))
			if spans != nil && n%spanEvery == 0 && len(spans.spans) < cap(spans.spans) {
				spans.spans = append(spans.spans, opSpan{start: t0, end: t1, op: uint8(op)})
			}
		} else {
			got, err = t.ops.Do(pid, op, v)
		}
		if err != nil && !errors.Is(err, t.empty) && !errors.Is(err, t.full) {
			tl.failed++
			continue
		}
		switch {
		case t.s.set && got == 1 && op == 0:
			tl.net[v]++
		case t.s.set && got == 1 && op == 1:
			tl.net[v]--
		case !t.s.set && err == nil && op == 0:
			tl.pushN++
			tl.pushSum += mix64(v)
		case !t.s.set && err == nil && op == 1:
			tl.popN++
			tl.popSum += mix64(got)
		}
	}
	tl.attempted += n
	return n
}

// epoch anchors now's monotonic readings.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// verify checks the trial's object at quiescence against the workers'
// tallies and returns the set's verified member count (containers: 0).
// Containers are drained: the count and mix64 sum of values pushed
// (prefill included) must equal those popped plus drained. Sets: each
// key's prefill (1 for even keys) plus net successful updates must be
// 0 or 1 and match Contains.
func (t *trial) verify() (members int, err error) {
	if t.s.set {
		for k := range t.s.keys {
			m := int64(1 - k%2)
			for _, tl := range t.tallies {
				m += int64(tl.net[k])
			}
			got, err := t.ops.Do(0, 2, uint64(k))
			if err != nil {
				return members, fmt.Errorf("contains(%d) at quiescence: %w", k, err)
			}
			if (m != 0 && m != 1) || uint64(m) != got {
				return members, fmt.Errorf("key %d: prefill plus net successful adds/removes = %d, contains = %d", k, m, got)
			}
			members += int(m)
		}
		return members, nil
	}
	in, inSum := uint64(containerPrefill), uint64(0)
	for i := range containerPrefill {
		inSum += mix64(prefillValue(i))
	}
	var out, outSum uint64
	for _, tl := range t.tallies {
		in, inSum = in+tl.pushN, inSum+tl.pushSum
		out, outSum = out+tl.popN, outSum+tl.popSum
	}
	for drained := uint64(0); ; drained++ {
		if drained > containerCap {
			return 0, fmt.Errorf("drain popped more than the capacity %d", containerCap)
		}
		v, err := t.ops.Do(0, 1, 0)
		if errors.Is(err, t.empty) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("drain: %w", err)
		}
		out, outSum = out+1, outSum+mix64(v)
	}
	if in != out || inSum != outSum {
		return 0, fmt.Errorf("conservation: pushed %d values (hash %#x), popped+drained %d (hash %#x)", in, inSum, out, outSum)
	}
	return 0, nil
}

func (t *trial) attempted() (n, failed uint64) {
	for _, tl := range t.tallies {
		n, failed = n+tl.attempted, failed+tl.failed
	}
	return n, failed
}

// heapAfterGC is HeapAlloc after a forced collection, with t (when
// non-nil) still reachable.
func heapAfterGC(t *trial) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(t)
	return ms.HeapAlloc
}
