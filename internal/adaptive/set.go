package adaptive

import (
	"sync/atomic"
	"time"

	"repro/internal/cmanager"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/set"
)

// The set ladder's rung indices, bottom first.
const (
	rungCow = iota
	rungHarris
	rungHash
)

// setRungs names the ladder, bottom first.
var setRungs = []string{"cow", "harris", "hash"}

// upLevel is the cmanager.Adaptive backoff level treated as a climb
// signal when such a manager paces the cow rung's retries: a shared
// backoff that deep means the single root register is saturated.
const upLevel = 3

// setRec is one immutable epoch record of the adaptive set; the
// register holding it is the migration epoch (see the package
// comment). impl is *set.Abortable, *set.Harris or *set.Hash. A sealed
// window (mig and sealed) has a quiesced harris/hash source and can
// only close.
type setRec struct {
	gen    uint64
	rung   int
	impl   any
	mig    bool
	sealed bool
	dst    int
}

// Set is the contention-adaptive sorted set: the copy-on-write list
// while small and calm (wait-free reads, trivial aborts), the
// Harris/Michael list once size or abort rate says the single root is
// the bottleneck, the split-ordered hash layer once the sorted walk
// itself dominates (the E18/E19 crossovers). Keys must be < 2^63 (the
// hash rung's reserved bit).
//
// The cow rung needs no announce protocol: its whole abstract state is
// one root register, so a migrator freezes it with set.Abortable.Seal
// and any update that raced the flip fails its stale root CAS. The
// harris and hash rungs are multi-register, so their updates run under
// the announce protocol and a migrator quiesces the announce array
// and seals the window before snapshotting. Reads never announce on
// any rung: the source stays authoritative until the close CAS.
type Set struct {
	state *memory.Ref[setRec]
	ann   []annSlot
	obs   memory.Observer
	n     int
	t     Thresholds

	// Retrier paces the cow rung's retries and, with a budget, sheds a
	// fully aborted update, like set.NonBlocking. Its Progress,
	// NonBlocking, is the ladder's: the cow rung's retry loop is the
	// weakest link (the list-engine rungs are lock-free).
	core.Retrier

	// ops feeds decision windows and the active-pid signal; adds/rems
	// maintain the approximate size; cowAborts is the cow rung's
	// contention signal.
	ops, adds, rems, cowAborts []counter

	deciding   atomic.Bool
	prevOps    []uint64
	prevAborts uint64

	consecAborts atomic.Uint32
	disabled     atomic.Bool
	migrations   atomic.Uint64
	abortedMig   atomic.Uint64
	curRung      atomic.Int32
	enterNS      atomic.Int64
	inRung       [3]atomic.Int64
}

// NewSet returns an adaptive set for n processes governed by t,
// starting on the cow rung.
func NewSet(n int, t Thresholds) *Set { return NewSetObserved(n, t, nil) }

// NewSetObserved is NewSet with every protocol register — the epoch
// record, the announce slots, the cow root, and every register of the
// rungs built by future migrations — reported to obs first: under
// internal/sched's controller the whole migration window becomes
// deterministically schedulable. A nil obs is equivalent to NewSet.
func NewSetObserved(n int, t Thresholds, obs memory.Observer) *Set {
	s := &Set{
		ann:       make([]annSlot, n),
		obs:       obs,
		n:         n,
		t:         t,
		ops:       make([]counter, n),
		adds:      make([]counter, n),
		rems:      make([]counter, n),
		cowAborts: make([]counter, n),
		prevOps:   make([]uint64, n),
	}
	for i := range s.ann {
		s.ann[i].w.Observe(obs)
	}
	s.state = memory.NewRefObserved(&setRec{gen: 1, rung: rungCow, impl: set.NewAbortableObserved(obs)}, obs)
	s.enterNS.Store(time.Now().UnixNano())
	return s
}

// Add inserts k; it reports whether k was newly inserted.
func (s *Set) Add(pid int, k uint64) bool { return s.update(pid, k, true) }

// Remove deletes k; it reports whether k was present.
func (s *Set) Remove(pid int, k uint64) bool { return s.update(pid, k, false) }

// Contains reports membership. It never announces: during a migration
// window the source structure is authoritative until the close CAS, so
// one epoch read plus the rung's own wait-free/lock-free read path is
// linearizable mid-flight.
func (s *Set) Contains(pid int, k uint64) bool {
	rec := s.state.Read()
	if c, ok := rec.impl.(*set.Abortable); ok {
		return c.Contains(k)
	}
	return rec.impl.(set.Strong).Contains(pid, k)
}

// update runs one strong update through the epoch record.
func (s *Set) update(pid int, k uint64, add bool) bool {
	attempts := 0
	for {
		rec := s.state.Read()
		if rec.mig {
			if done, res := s.updateDuringMig(pid, k, add, rec, &attempts); done {
				return res
			}
			continue
		}
		if rec.rung == rungCow {
			if done, res := s.tryCowOnce(pid, k, add, rec.impl.(*set.Abortable), &attempts); done {
				return res
			}
			continue
		}
		// harris / hash: a lock-free total op under the announce
		// protocol (announce, re-validate the epoch, run, clear).
		s.ann[pid].w.Write(rec.gen)
		if s.state.Read() != rec {
			s.ann[pid].w.Write(0)
			continue
		}
		st := rec.impl.(set.Strong)
		var res bool
		if add {
			res = st.Add(pid, k)
		} else {
			res = st.Remove(pid, k)
		}
		s.ann[pid].w.Write(0)
		s.finish(pid, add, res, attempts)
		return res
	}
}

// tryCowOnce makes one cow attempt. done=false means the caller must
// re-read the epoch record (abort under interference, or the root was
// sealed by a migrator).
func (s *Set) tryCowOnce(pid int, k uint64, add bool, cw *set.Abortable, attempts *int) (done, res bool) {
	var err error
	if add {
		res, err = cw.TryAdd(k)
	} else {
		res, err = cw.TryRemove(k)
	}
	if err == nil {
		s.finish(pid, add, res, *attempts)
		return true, res
	}
	if err == set.ErrAborted {
		s.cowAborts[pid].v.Add(1)
		*attempts++
		if s.Abort(*attempts) {
			// Budget spent: shed with no effect, like set.NonBlocking.
			return true, false
		}
	}
	return false, false
}

// updateDuringMig handles an update that found a migration window
// open. done=true means the update completed on the still-live source.
func (s *Set) updateDuringMig(pid int, k uint64, add bool, rec *setRec, attempts *int) (done, res bool) {
	if rec.rung == rungCow {
		cw := rec.impl.(*set.Abortable)
		if !cw.Sealed() {
			// The migrator has not frozen the root yet (or crashed
			// before it could): the source is still authoritative and
			// live, and the root CAS arbitrates against the seal — an
			// update that lands here linearizes before the flip.
			return s.tryCowOnce(pid, k, add, cw, attempts)
		}
		s.completeFromCow(pid, rec, cw)
		return false, false
	}
	s.helpQuiesced(pid, rec)
	return false, false
}

// completeFromCow finishes a window whose cow source is sealed:
// snapshot the frozen list, rebuild the target privately, close with
// one CAS. Any process can run it; close-CAS losers discard.
func (s *Set) completeFromCow(pid int, rec *setRec, cw *set.Abortable) {
	dst := s.buildRung(pid, rec.dst, cw.Snapshot())
	if s.state.CAS(rec, &setRec{gen: rec.gen + 1, rung: rec.dst, impl: dst}) {
		s.onClose(rec.rung, rec.dst)
	}
}

// helpQuiesced drives a window with an announce-gated source (harris
// or hash): quiesce and seal, snapshot, rebuild, close — or abort the
// window when the budget runs out.
//
// The seal is the containers' (DESIGN §9). An abort re-publishes the
// source; a helper that quiesced just before someone else aborted
// would otherwise walk a live list. Its close CAS would fail and its
// rebuild be discarded, but the walk itself need not end: recycled
// nodes can leave a cycle of free next words (a removed node's frozen
// word naming its successor, that successor recycled into a lost
// insert that names the removed node), and a walker standing on one
// loops until a pool hands a node of the cycle out again. The seal
// CAS succeeds only while the unaborted window is current, and a
// sealed window never aborts, so every snapshot walks a list no
// update will touch again.
func (s *Set) helpQuiesced(pid int, rec *setRec) {
	if !rec.sealed {
		if !quiesceSlots(s.ann, pid, s.t.quiesceBudget()) {
			if s.state.CAS(rec, &setRec{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl}) {
				s.onAbort()
			}
			return
		}
		sealed := &setRec{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, sealed: true, dst: rec.dst}
		if !s.state.CAS(rec, sealed) {
			return
		}
		rec = sealed
	}
	snap := rec.impl.(interface{ Snapshot() []uint64 }).Snapshot()
	dst := s.buildRung(pid, rec.dst, snap)
	if s.state.CAS(rec, &setRec{gen: rec.gen + 1, rung: rec.dst, impl: dst}) {
		s.onClose(rec.rung, rec.dst)
	}
}

// buildRung constructs rung from an ascending snapshot, privately.
// Descending inserts land each key at the head of the list engines, so
// the rebuild is linear, not quadratic.
func (s *Set) buildRung(pid, rung int, snap []uint64) any {
	switch rung {
	case rungCow:
		c := set.NewAbortableObserved(s.obs)
		for i := len(snap) - 1; i >= 0; i-- {
			c.TryAdd(snap[i]) // private: never aborts
		}
		return c
	case rungHarris:
		h := set.NewHarrisObserved(s.n, s.obs)
		for i := len(snap) - 1; i >= 0; i-- {
			h.Add(pid, snap[i])
		}
		return h
	default:
		h := set.NewHashObserved(s.n, s.obs)
		for _, k := range snap {
			h.Add(pid, k)
		}
		return h
	}
}

// finish closes one completed update: reset the retry manager, feed
// the size and window counters, maybe adapt.
func (s *Set) finish(pid int, add, changed bool, attempts int) {
	if attempts > 0 {
		s.Succeed()
	}
	if changed {
		if add {
			s.adds[pid].v.Add(1)
		} else {
			s.rems[pid].v.Add(1)
		}
	}
	n := s.ops[pid].v.Add(1)
	if s.t.Window > 0 && n%uint64(s.t.Window) == 0 {
		s.maybeAdapt(pid)
	}
}

// approxSize is the counter-derived size (successful adds minus
// successful removes): exact at quiescence, a cheap deterministic
// signal under load.
func (s *Set) approxSize() int {
	a, r := sumCounters(s.adds), sumCounters(s.rems)
	if a <= r {
		return 0
	}
	return int(a - r)
}

// maybeAdapt takes one adaptation decision under the try-lock.
// Climbing is checked first.
func (s *Set) maybeAdapt(pid int) {
	if s.disabled.Load() || !s.deciding.CompareAndSwap(false, true) {
		return
	}
	defer s.deciding.Store(false)
	rec := s.state.Read()
	if rec.mig {
		return
	}
	size := s.approxSize()
	aborts := sumCounters(s.cowAborts)
	delta := aborts - s.prevAborts
	s.prevAborts = aborts
	act := 0
	for i := range s.ops {
		if cur := s.ops[i].v.Load(); cur != s.prevOps[i] {
			s.prevOps[i] = cur
			act++
		}
	}
	lvl := 0
	m, _ := s.RetryPolicy()
	if a, ok := m.(*cmanager.Adaptive); ok {
		lvl = a.Level()
	}
	var up, down bool
	switch rec.rung {
	case rungCow:
		up = size >= s.t.SetSizeUp[0] || delta >= uint64(s.t.UpContended) || lvl >= upLevel
	case rungHarris:
		up = size >= s.t.SetSizeUp[1]
		down = size <= s.t.SetSizeDown[0] && act <= s.t.DownProcs
	case rungHash:
		down = size <= s.t.SetSizeDown[1] && act <= s.t.DownProcs
	}
	switch {
	case up && rec.rung < rungHash:
		s.migrate(pid, rec, rec.rung+1)
	case down && rec.rung > rungCow:
		s.migrate(pid, rec, rec.rung-1)
	}
}

// migrate opens a window from rec to dst and drives it. For a cow
// source only the opener seals (helpers require a sealed root), so an
// exhausted seal budget aborts with no counterparty to race.
func (s *Set) migrate(pid int, rec *setRec, dst int) {
	mig := &setRec{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, dst: dst}
	if !s.state.CAS(rec, mig) {
		return
	}
	if rec.rung == rungCow {
		cw := rec.impl.(*set.Abortable)
		budget := s.t.quiesceBudget()
		for cw.Seal() != nil {
			budget--
			if budget <= 0 {
				if s.state.CAS(mig, &setRec{gen: mig.gen + 1, rung: mig.rung, impl: mig.impl}) {
					s.onAbort()
				}
				return
			}
		}
		s.completeFromCow(pid, mig, cw)
		return
	}
	s.helpQuiesced(pid, mig)
}

// MorphTo steps the set to rung dst (an index into Rungs) ignoring
// thresholds; it reports whether dst was reached. Test hook.
func (s *Set) MorphTo(pid, dst int) bool {
	if dst < rungCow || dst > rungHash {
		return false
	}
	for i := 0; i < 64; i++ {
		rec := s.state.Read()
		if rec.mig {
			if rec.rung == rungCow {
				if cw := rec.impl.(*set.Abortable); cw.Sealed() {
					s.completeFromCow(pid, rec, cw)
				}
				// An unsealed open window resolves only through its
				// opener; keep re-reading.
				continue
			}
			s.helpQuiesced(pid, rec)
			continue
		}
		if rec.rung == dst {
			return true
		}
		next := rec.rung + 1
		if dst < rec.rung {
			next = rec.rung - 1
		}
		s.migrate(pid, rec, next)
	}
	return false
}

func (s *Set) onClose(src, dst int) {
	s.migrations.Add(1)
	s.consecAborts.Store(0)
	s.curRung.Store(int32(dst))
	now := time.Now().UnixNano()
	prev := s.enterNS.Swap(now)
	s.inRung[src].Add(now - prev)
}

func (s *Set) onAbort() {
	s.abortedMig.Add(1)
	if s.consecAborts.Add(1) >= abortLimit {
		s.disabled.Store(true)
	}
}

// Stats returns the migration counters and time-in-regime without
// touching the (possibly observed) epoch register.
func (s *Set) Stats() Stats {
	cur := int(s.curRung.Load())
	st := Stats{
		Migrations: s.migrations.Load(),
		Aborted:    s.abortedMig.Load(),
		Rung:       setRungs[cur],
		InRung:     make(map[string]time.Duration, len(setRungs)),
	}
	now := time.Now().UnixNano()
	for i, name := range setRungs {
		d := s.inRung[i].Load()
		if i == cur {
			d += now - s.enterNS.Load()
		}
		if d > 0 {
			st.InRung[name] = time.Duration(d)
		}
	}
	return st
}

// Rung returns the current rung's name.
func (s *Set) Rung() string { return setRungs[s.curRung.Load()] }

// Rungs returns the ladder's rung names, bottom first.
func (s *Set) Rungs() []string { return append([]string(nil), setRungs...) }

// Unwrap returns the current rung's concrete backend (*set.Abortable,
// *set.Harris or *set.Hash). After a morph it returns the new rung.
func (s *Set) Unwrap() any { return s.state.Read().impl }

// Len returns the number of keys; quiescent states only.
func (s *Set) Len() int {
	switch c := s.state.Read().impl.(type) {
	case *set.Abortable:
		return c.Len()
	case *set.Harris:
		return c.Len()
	default:
		return c.(*set.Hash).Len()
	}
}

// Snapshot returns the keys in ascending order; quiescent states only.
func (s *Set) Snapshot() []uint64 {
	switch c := s.state.Read().impl.(type) {
	case *set.Abortable:
		return c.Snapshot()
	case *set.Harris:
		return c.Snapshot()
	default:
		return c.(*set.Hash).Snapshot()
	}
}

var _ set.Strong = (*Set)(nil)
