package combine

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/memory"
)

// Publication-slot states. A slot cycles free → pending → done → free;
// only the owner moves it out of done, only a combiner moves it out of
// pending.
const (
	slotFree uint32 = iota
	slotPending
	slotDone
)

// combinePasses is how many times a combiner re-scans the publication
// list before releasing: a second pass picks up requests published
// while the first ran, amortizing the lock hand-off further.
const combinePasses = 2

// defaultLeaseBudget is how many consecutive unchanged (lease, beat)
// observations a waiter tolerates before it presumes the combiner
// crashed and steals the lease. The combiner bumps the heartbeat once
// per slot application, so a live combiner is stale only while one
// apply is in flight; with a Gosched every lock.SpinBudget observations a
// runnable combiner gets scheduled long before the budget expires.
// A false steal is the only path to a double-applied request, so by
// default the budget alone does not license one: defaultLeaseTimeout
// must also pass. Tests shrink the budget via SetLeaseBudget to pin
// takeovers deterministically.
const defaultLeaseBudget = 1 << 16

// defaultLeaseTimeout is the wall-clock floor on a default-budget
// steal: besides exhausting the observation budget, the lease must
// have stayed frozen this long (timed from the freeze's lock.SpinBudget-th
// observation, so short freezes never read the clock). The budget
// alone is a few milliseconds of spinning, and a live combiner whose
// thread the OS has descheduled (more runnable threads than cores)
// stays frozen that long routinely; stealing from it while it has one
// application in flight applies that request twice. The floor keeps
// crash recovery far inside the crash suites' recovery bounds
// (seconds).
const defaultLeaseTimeout = 100 * time.Millisecond

// The combiner lease word packs (owner pid + 1) in the high 32 bits —
// zero means the lease is free — and an acquisition epoch in the low
// 32. Every acquisition (normal or steal) increments the epoch, so a
// deposed combiner discovers it lost the lease by re-reading the word:
// even if its pid re-acquired, the epoch moved. (Epoch wrap-around
// would need 2^32 acquisitions between two reads by one stalled
// process; we accept that as unreachable.)
func packLease(pid int, epoch uint32) uint64 {
	return uint64(pid+1)<<32 | uint64(epoch)
}

// leaseOwner returns the holder's pid, or -1 when the lease is free.
func leaseOwner(l uint64) int { return int(l>>32) - 1 }

// leaseEpoch returns the acquisition epoch.
func leaseEpoch(l uint64) uint32 { return uint32(l) }

// slot is one process's publication record. arg and res are plain
// fields ordered by the atomic state transitions: the owner writes arg
// before publishing pending, the combiner writes res before publishing
// done. fast and published are the owner's path counters: only pid
// touches its own, so the increments stay on a core-local cache line
// instead of contending on one shared word per operation (Stats sums
// them).
type slot[A, R any] struct {
	state     atomic.Uint32
	_         [60]byte // waiters spin on state: keep it alone on its line
	fast      atomic.Uint64
	published atomic.Uint64
	arg       A
	res       R
	_         [64]byte // keep the next slot's state off this slot's data
}

// Stats is a snapshot of a Core's path and batching counters.
type Stats struct {
	// Fast counts operations completed on the lock-free shortcut.
	Fast uint64
	// Published counts operations that fell back to the publication
	// list (the contended path).
	Published uint64
	// Combines counts combining passes (lease acquisitions that
	// scanned the list, takeovers included).
	Combines uint64
	// Served counts requests completed by combiners on behalf of any
	// process; Served/Combines is the mean batch size.
	Served uint64
	// MaxBatch is the largest number of requests one combining pass
	// served.
	MaxBatch uint64
	// Retries counts weak attempts consumed inside combining passes
	// beyond the first per request (interference from concurrent
	// fast-path operations).
	Retries uint64
	// Steals counts lease takeovers: a waiter observed the lease and
	// heartbeat unchanged for the full lease budget and seized the
	// combiner role from a presumed-crashed holder.
	Steals uint64
	// Crashes counts armed fault injections that fired (the combiner
	// goroutine exited mid-pass with the lease held).
	Crashes uint64
}

// BatchMean returns the mean combining batch size (0 when no pass ran).
func (s Stats) BatchMean() float64 {
	if s.Combines == 0 {
		return 0
	}
	return float64(s.Served) / float64(s.Combines)
}

// armedCrash is a one-shot fault-injection point: when pid next runs a
// combining pass it performs `serves` slot applications and then
// crashes (runtime.Goexit) with the lease held and CONTENTION raised —
// the worst-case mid-pass combiner death.
type armedCrash struct {
	pid    int
	serves atomic.Int64
}

// Core is the flat-combining construction over one abortable object.
// try is the object's weak operation: a single attempt that either
// takes effect (ok=true) or aborts with no effect (ok=false); a solo
// attempt must never abort. try receives the pid of the EXECUTING
// process — the caller on the fast path, the combiner when a request
// is served from the publication list — so pooled backends can route
// node recycling through the executor's per-pid free list. All strong
// operations of the object must share one Core, for the same reason
// all of Figure 3's share one Guard: CONTENTION and the publication
// list are per-object.
//
// The combiner role is held under a LEASE, not a plain lock: the
// holder heartbeats `beat` once per served slot, and a waiter that
// observes (lease, beat) frozen for the lease budget CAS-steals the
// lease and re-serves the still-pending slots. A combiner that crashes
// mid-pass therefore costs the survivors one lease budget of spinning
// instead of wedging every future contended operation — see the
// package comment's crash-tolerance argument.
//
// The fields fall into three groups by writer and frequency, each
// starting at least 64 B after the previous group's last word, so no
// 64-byte line holds words of two groups at any allocation offset:
// the read-mostly header that every Do loads, the lease and heartbeat
// that the combiner writes on every pass and every served slot, and
// the per-pass counters.
type Core[A, R any] struct {
	try          func(pid int, arg A) (R, bool)
	contention   *memory.Flag
	obs          memory.Observer
	leaseBudget  int
	leaseTimeout time.Duration
	slots        []slot[A, R]
	armed        atomic.Pointer[armedCrash]
	_            [56]byte

	lease atomic.Uint64
	beat  atomic.Uint64
	_     [56]byte

	// Combiner-side counters: touched once per combining pass, not
	// per operation, so sharing the words among themselves is
	// harmless.
	combines atomic.Uint64
	served   atomic.Uint64
	maxBatch atomic.Uint64
	retries  atomic.Uint64
	steals   atomic.Uint64
	crashes  atomic.Uint64
}

// NewCore returns a Core for n processes (pids in [0, n)) over try.
func NewCore[A, R any](n int, try func(pid int, arg A) (R, bool)) *Core[A, R] {
	if n < 1 {
		panic("combine: process count must be >= 1")
	}
	return &Core[A, R]{
		try:          try,
		contention:   memory.NewFlag(false),
		leaseBudget:  defaultLeaseBudget,
		leaseTimeout: defaultLeaseTimeout,
		slots:        make([]slot[A, R], n),
	}
}

// NewCoreObserved is NewCore with every access to the combiner lease,
// the heartbeat and CONTENTION reported to obs first. Under
// internal/sched's controller this makes the whole contended path —
// publication, combining, takeover — deterministically schedulable:
// each waiter iteration performs observed loads, so the controller can
// interleave (and crash) combiners and waiters at chosen steps.
func NewCoreObserved[A, R any](n int, try func(pid int, arg A) (R, bool), obs memory.Observer) *Core[A, R] {
	c := NewCore(n, try)
	c.obs = obs
	c.contention = memory.NewFlagObserved(false, obs)
	return c
}

// SetLeaseBudget overrides the stale-observation budget after which a
// waiter steals a frozen lease (n >= 1), and drops the wall-clock floor
// (defaultLeaseTimeout): an explicit budget is the whole rule, so the
// steal point is a pure function of the schedule. Deterministic tests
// shrink it so a pinned schedule reaches the takeover in a handful of
// steps.
func (c *Core[A, R]) SetLeaseBudget(n int) {
	if n >= 1 {
		c.leaseBudget = n
		c.leaseTimeout = 0
	}
}

// observed-access helpers: the lease and heartbeat words are the
// protocol's shared registers, so they report to the observer exactly
// like the object's own words do.
func (c *Core[A, R]) loadLease() uint64 {
	if c.obs != nil {
		c.obs.OnAccess(memory.Read)
	}
	return c.lease.Load()
}

func (c *Core[A, R]) casLease(old, new uint64) bool {
	if c.obs != nil {
		c.obs.OnAccess(memory.CAS)
	}
	return c.lease.CompareAndSwap(old, new)
}

func (c *Core[A, R]) loadBeat() uint64 {
	if c.obs != nil {
		c.obs.OnAccess(memory.Read)
	}
	return c.beat.Load()
}

func (c *Core[A, R]) bumpBeat() {
	if c.obs != nil {
		c.obs.OnAccess(memory.Write)
	}
	c.beat.Add(1)
}

// Do runs one strong operation on behalf of pid. The fast path is
// Figure 3's line 01-02 shortcut unchanged; the fallback publishes the
// request and either waits for a combiner to serve it or becomes the
// combiner itself. Do always returns a real result and terminates for
// every caller (see the package comment's liveness argument).
func (c *Core[A, R]) Do(pid int, arg A) R {
	if !c.contention.Read() {
		if res, ok := c.try(pid, arg); ok {
			c.slots[pid].fast.Add(1)
			return res
		}
	}
	return c.DoContended(pid, arg)
}

// Publish posts pid's request on the publication list without waiting
// for the result — the scenario layer's crash-injection seam: a
// process that dies mid-operation is modelled as publish-and-abandon,
// leaving a pending request that a combiner may or may not serve
// before the run ends (the §5 "crashed operation is pending" rule).
// After Publish the pid must never operate on this Core again: its
// slot is permanently in flight.
func (c *Core[A, R]) Publish(pid int, arg A) {
	s := &c.slots[pid]
	s.arg = arg
	s.state.Store(slotPending)
	s.published.Add(1)
}

// ArmCombinerCrash arms the one-shot fault injection: the next time
// pid serves a combining pass it applies `after` slots and then its
// goroutine exits (runtime.Goexit) with the lease held and CONTENTION
// raised. Returns false if an injection is already armed. Survivors
// recover via the lease takeover; the crashed pid must never operate
// on this Core again.
func (c *Core[A, R]) ArmCombinerCrash(pid, after int) bool {
	a := &armedCrash{pid: pid}
	a.serves.Store(int64(after))
	return c.armed.CompareAndSwap(nil, a)
}

// maybeCrash fires an armed injection at the pre-apply crash point.
func (c *Core[A, R]) maybeCrash(pid int) {
	a := c.armed.Load()
	if a == nil || a.pid != pid {
		return
	}
	if a.serves.Add(-1) < 0 {
		c.armed.CompareAndSwap(a, nil)
		c.crashes.Add(1)
		runtime.Goexit()
	}
}

// DoContended runs one strong operation entirely on the contended
// path: the request is published without attempting the lock-free
// shortcut. Do falls back to it; benchmarks (E15) call it directly to
// isolate the batched contended path against Figure 3's serialized
// per-operation lock fallback.
func (c *Core[A, R]) DoContended(pid int, arg A) R {
	s := &c.slots[pid]
	s.arg = arg
	s.state.Store(slotPending)
	s.published.Add(1)
	spins, stale := 0, 0
	var lastLease, lastBeat uint64
	var frozenAt time.Time // when stale reached lock.SpinBudget
	haveObs := false
	for {
		if s.state.Load() == slotDone {
			s.state.Store(slotFree)
			return s.res
		}
		l := c.loadLease()
		if leaseOwner(l) < 0 {
			// Lease free: become the combiner. The previous holder may
			// have served us between the state load above and the CAS;
			// don't burn a zero-batch scan (and skew BatchMean) then —
			// any still-pending waiter will win the lease itself.
			if c.casLease(l, packLease(pid, leaseEpoch(l)+1)) {
				if s.state.Load() != slotDone {
					c.combine(pid, leaseEpoch(l)+1)
				}
				c.releaseLease(pid, leaseEpoch(l)+1)
			}
			haveObs = false
			continue
		}
		b := c.loadBeat()
		if haveObs && l == lastLease && b == lastBeat {
			if stale++; stale == lock.SpinBudget && c.leaseTimeout > 0 {
				frozenAt = time.Now()
			}
			if stale >= c.leaseBudget && (c.leaseTimeout <= 0 || time.Since(frozenAt) >= c.leaseTimeout) {
				stale = 0
				// The holder made no progress for the whole budget:
				// presume it crashed and steal the lease. If it is in
				// fact alive the CAS publishes its deposition — it
				// re-checks the lease before every apply and abandons
				// the pass.
				if c.casLease(l, packLease(pid, leaseEpoch(l)+1)) {
					c.steals.Add(1)
					if s.state.Load() != slotDone {
						c.combine(pid, leaseEpoch(l)+1)
					}
					c.releaseLease(pid, leaseEpoch(l)+1)
				}
				haveObs = false
				continue
			}
		} else {
			lastLease, lastBeat, stale, haveObs = l, b, 0, true
		}
		if spins++; spins >= lock.SpinBudget {
			spins = 0
			runtime.Gosched()
		}
	}
}

// releaseLease hands the lease back (owner 0, epoch preserved). A
// failed CAS means a waiter stole the lease mid-pass — the thief owns
// the role now, so there is nothing to release.
func (c *Core[A, R]) releaseLease(pid int, epoch uint32) {
	c.casLease(packLease(pid, epoch), uint64(epoch))
}

// combine serves every published request. The caller holds the lease
// at the given epoch; pid is the combiner's own identity, under which
// every served request executes. CONTENTION is raised for the duration
// so that new arrivals divert to the publication list instead of
// racing the combiner on the object's registers — the same role it
// plays in Figure 3's slow path. Before every slot application the
// combiner re-reads the lease: a changed word means a waiter presumed
// it dead and stole the role, so it abandons the pass immediately
// (the thief re-serves anything still pending, and owns CONTENTION).
func (c *Core[A, R]) combine(pid int, epoch uint32) {
	c.combines.Add(1)
	c.contention.Write(true)
	batch := uint64(0)
	deposed := false
	held := packLease(pid, epoch)
	for pass := 0; pass < combinePasses && !deposed; pass++ {
		for i := range c.slots {
			s := &c.slots[i]
			if s.state.Load() != slotPending {
				continue
			}
			if c.loadLease() != held {
				deposed = true
				break
			}
			c.bumpBeat()
			c.maybeCrash(pid)
			s.res = c.apply(pid, s.arg)
			s.state.Store(slotDone)
			batch++
		}
	}
	if !deposed {
		c.contention.Write(false)
	}
	c.served.Add(batch)
	core.StoreMax(&c.maxBatch, batch)
}

// apply retries the weak operation until it takes effect, on behalf of
// the combiner pid. A failed attempt means a fast-path operation that
// started before CONTENTION was raised is mid-flight; yielding lets it
// finish.
func (c *Core[A, R]) apply(pid int, arg A) R {
	for attempt := 0; ; attempt++ {
		if res, ok := c.try(pid, arg); ok {
			if attempt > 0 {
				c.retries.Add(uint64(attempt))
			}
			return res
		}
		runtime.Gosched()
	}
}

// Stats returns a snapshot of the path and batching counters.
func (c *Core[A, R]) Stats() Stats {
	st := Stats{
		Combines: c.combines.Load(),
		Served:   c.served.Load(),
		MaxBatch: c.maxBatch.Load(),
		Retries:  c.retries.Load(),
		Steals:   c.steals.Load(),
		Crashes:  c.crashes.Load(),
	}
	for i := range c.slots {
		st.Fast += c.slots[i].fast.Load()
		st.Published += c.slots[i].published.Load()
	}
	return st
}

// ResetStats zeroes the counters (between quiescent phases only).
func (c *Core[A, R]) ResetStats() {
	for i := range c.slots {
		c.slots[i].fast.Store(0)
		c.slots[i].published.Store(0)
	}
	c.combines.Store(0)
	c.served.Store(0)
	c.maxBatch.Store(0)
	c.retries.Store(0)
	c.steals.Store(0)
	c.crashes.Store(0)
}

// Procs returns n, the size of the publication list.
func (c *Core[A, R]) Procs() int { return len(c.slots) }
