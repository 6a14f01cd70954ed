package adaptive

import (
	"sync/atomic"
	"time"

	"repro/internal/memory"
)

// container is the rung-side contract of the adaptive containers: one
// strong put/take pair, a quiescent snapshot for migration rebuilds, a
// cumulative contended-operation counter (the rung's own slow-path or
// publication statistic), and the concrete backend for Unwrap.
type container[T any] interface {
	put(pid int, v T) error
	take(pid int) (T, error)
	snapshot() []T
	contended() uint64
	inner() any
}

// contRec is one immutable epoch record of an adaptive container; see
// the package comment for the transition diagram. The register holding
// it is the migration epoch: every transition installs a fresh record,
// so pointer identity identifies the epoch with no ABA. A sealed
// window (mig and sealed) has reached quiescence and can only close.
type contRec[T any] struct {
	gen    uint64
	rung   int
	impl   container[T]
	mig    bool
	sealed bool
	dst    int
}

// meta is the shared engine of Stack and Queue: the epoch register,
// the announce array, the rung builders, and the decision state.
type meta[T any] struct {
	state *memory.Ref[contRec[T]]
	ann   []annSlot
	build []func() container[T]
	names []string
	t     Thresholds

	// ops feeds both the per-pid decision windows and the
	// distinct-active-pid signal.
	ops []counter

	// deciding serializes adaptation decisions; prevOps/prevCont/
	// lastImpl are owned by the holder.
	deciding atomic.Bool
	prevOps  []uint64
	prevCont uint64
	lastImpl container[T]

	consecAborts atomic.Uint32
	disabled     atomic.Bool
	migrations   atomic.Uint64
	abortedMig   atomic.Uint64
	curRung      atomic.Int32
	enterNS      atomic.Int64
	inRung       []atomic.Int64
}

func newMeta[T any](n int, t Thresholds, names []string, build []func() container[T]) *meta[T] {
	m := &meta[T]{
		ann:     make([]annSlot, n),
		build:   build,
		names:   names,
		t:       t,
		ops:     make([]counter, n),
		prevOps: make([]uint64, n),
		inRung:  make([]atomic.Int64, len(build)),
	}
	first := build[0]()
	m.state = memory.NewRef(&contRec[T]{gen: 1, rung: 0, impl: first})
	m.lastImpl = first
	m.enterNS.Store(time.Now().UnixNano())
	return m
}

// do runs one strong operation under the announce protocol: read the
// epoch record, announce, re-validate the record pointer (the Dekker
// handshake with a migrator opening a window), run the operation on
// the validated rung, clear the announce. An open migration window is
// helped to a resolution first.
func (m *meta[T]) do(pid int, op func(container[T]) (T, error)) (T, error) {
	for {
		rec := m.state.Read()
		if rec.mig {
			m.help(pid, rec)
			continue
		}
		m.ann[pid].w.Write(rec.gen)
		if m.state.Read() != rec {
			m.ann[pid].w.Write(0)
			continue
		}
		v, err := op(rec.impl)
		m.ann[pid].w.Write(0)
		m.account(pid)
		return v, err
	}
}

// help drives an open migration window to a resolution: quiesce the
// announce array and seal the window, snapshot the frozen source,
// rebuild the target privately, and publish target-plus-close in one
// CAS — or abort the window when quiescence cannot be reached within
// the budget. Any process can help; losers of the close CAS discard
// their private target, which is what makes a crashed migrator
// harmless.
//
// The seal CAS is what makes the snapshot safe. An abort re-publishes
// the source, so operations resume on it; a helper that quiesced just
// before someone else aborted would otherwise read a live source. The
// seal succeeds only while the unaborted window is still current, and
// a sealed window is never aborted, so once sealed the source takes no
// more operations and every helper may read it.
func (m *meta[T]) help(pid int, rec *contRec[T]) {
	if !rec.sealed {
		if !quiesceSlots(m.ann, pid, m.t.quiesceBudget()) {
			if m.state.CAS(rec, &contRec[T]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl}) {
				m.onAbort()
			}
			return
		}
		sealed := &contRec[T]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, sealed: true, dst: rec.dst}
		if !m.state.CAS(rec, sealed) {
			return
		}
		rec = sealed
	}
	snap := rec.impl.snapshot()
	dst := m.build[rec.dst]()
	for _, v := range snap {
		// The target is private until the close CAS publishes it:
		// refills run contention-free and cannot overflow (equal
		// capacity), so the error is always nil.
		dst.put(pid, v)
	}
	if m.state.CAS(rec, &contRec[T]{gen: rec.gen + 1, rung: rec.dst, impl: dst}) {
		m.onClose(rec.rung, rec.dst)
	}
}

// account bumps pid's operation counter and runs an adaptation
// decision at window boundaries.
func (m *meta[T]) account(pid int) {
	n := m.ops[pid].v.Add(1)
	if m.t.Window > 0 && n%uint64(m.t.Window) == 0 {
		m.maybeAdapt(pid)
	}
}

// maybeAdapt takes one adaptation decision under the try-lock: read
// the current rung's contended-operation delta and the set of pids
// active since the last decision, then climb or descend. Climbing is
// checked first, so a saturated signal never descends.
func (m *meta[T]) maybeAdapt(pid int) {
	if m.disabled.Load() || !m.deciding.CompareAndSwap(false, true) {
		return
	}
	defer m.deciding.Store(false)
	rec := m.state.Read()
	if rec.mig {
		return
	}
	cont := rec.impl.contended()
	delta := cont
	if rec.impl == m.lastImpl {
		delta = cont - m.prevCont
	}
	m.lastImpl, m.prevCont = rec.impl, cont
	act := 0
	for i := range m.ops {
		if cur := m.ops[i].v.Load(); cur != m.prevOps[i] {
			m.prevOps[i] = cur
			act++
		}
	}
	up := delta >= uint64(m.t.UpContended) || act >= m.t.UpProcs
	down := delta <= uint64(m.t.DownContended) && act <= m.t.DownProcs
	switch {
	case up && rec.rung < len(m.build)-1:
		m.migrate(pid, rec, rec.rung+1)
	case down && rec.rung > 0:
		m.migrate(pid, rec, rec.rung-1)
	}
}

// migrate opens a migration window from rec to dst and drives it.
func (m *meta[T]) migrate(pid int, rec *contRec[T], dst int) {
	mig := &contRec[T]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, dst: dst}
	if m.state.CAS(rec, mig) {
		m.help(pid, mig)
	}
}

// morphTo steps the object rung by rung to dst, ignoring thresholds —
// the test hook behind the migration-forcing fuzzers. It reports
// whether dst was reached.
func (m *meta[T]) morphTo(pid, dst int) bool {
	if dst < 0 || dst >= len(m.build) {
		return false
	}
	for i := 0; i < 64; i++ {
		rec := m.state.Read()
		if rec.mig {
			m.help(pid, rec)
			continue
		}
		if rec.rung == dst {
			return true
		}
		next := rec.rung + 1
		if dst < rec.rung {
			next = rec.rung - 1
		}
		m.migrate(pid, rec, next)
	}
	return false
}

func (m *meta[T]) onClose(src, dst int) {
	m.migrations.Add(1)
	m.consecAborts.Store(0)
	m.curRung.Store(int32(dst))
	now := time.Now().UnixNano()
	prev := m.enterNS.Swap(now)
	m.inRung[src].Add(now - prev)
}

func (m *meta[T]) onAbort() {
	m.abortedMig.Add(1)
	if m.consecAborts.Add(1) >= abortLimit {
		m.disabled.Store(true)
	}
}

// stats assembles a Stats snapshot without touching the (possibly
// observed) epoch register, so it is safe outside replayed schedules.
func (m *meta[T]) stats() Stats {
	cur := int(m.curRung.Load())
	st := Stats{
		Migrations: m.migrations.Load(),
		Aborted:    m.abortedMig.Load(),
		Rung:       m.names[cur],
		InRung:     make(map[string]time.Duration, len(m.names)),
	}
	now := time.Now().UnixNano()
	for i, name := range m.names {
		d := m.inRung[i].Load()
		if i == cur {
			d += now - m.enterNS.Load()
		}
		if d > 0 {
			st.InRung[name] = time.Duration(d)
		}
	}
	return st
}

func (m *meta[T]) unwrap() any { return m.state.Read().impl.inner() }
