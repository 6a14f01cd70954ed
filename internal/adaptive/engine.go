package adaptive

import (
	"sync/atomic"
	"time"

	"repro/internal/memory"
)

// rung is one catalog backend as the migration engine sees it: a
// quiescent snapshot of its abstract state, a cumulative
// contended-operation counter (the rung's own contention signal), and
// the concrete backend for Unwrap.
//
// A rung is frozen for a migration in one of two ways. A gated rung's
// writers announce (enter), and the engine freezes it by announce
// quiescence plus the record seal. A rung whose whole abstract state
// is one root register also implements inPlace and is frozen there.
type rung[T any] interface {
	snapshot() []T
	contended() uint64
	inner() any
}

// inPlace is implemented by a non-gated rung (the cow set). Its
// writers never announce: freeze seals its root within budget tries,
// and any writer that raced the seal fails its stale root CAS. Only a
// window's opener freezes; a helper finishes only a window whose rung
// is already frozen.
type inPlace interface {
	freeze(budget int) bool
	frozen() bool
}

// step is one rung of a ladder: its name and the builder that
// constructs it privately from an ascending snapshot of the previous
// rung (nil for the initial rung).
type step[T any, R rung[T]] struct {
	name  string
	build func(pid int, snap []T) R
}

// record is one immutable epoch record; see the package comment for
// the transition diagram. The register holding it is the migration
// epoch: every transition installs a fresh record, so pointer
// identity identifies the epoch with no ABA. A sealed window (mig and
// sealed) has a quiesced gated source and can only close.
type record[R any] struct {
	gen    uint64
	rung   int
	impl   R
	mig    bool
	sealed bool
	dst    int
}

// meta is the one migration engine, shared by Stack, Queue and Set:
// the epoch register, the announce array, the ladder, and the
// decision state. decide is the ladder's climb/descend rule over the
// current rung, the contended-operation delta since the last decision
// on the same rung instance, and the number of pids active since then.
type meta[T any, R rung[T]] struct {
	state  *memory.Ref[record[R]]
	ann    []annSlot
	ladder []step[T, R]
	t      Thresholds
	decide func(rung int, delta uint64, act int) (up, down bool)

	// ops feeds both the per-pid decision windows and the
	// distinct-active-pid signal.
	ops []counter

	// deciding serializes adaptation decisions; prevOps/prevCont/
	// lastImpl are owned by the holder.
	deciding atomic.Bool
	prevOps  []uint64
	prevCont uint64
	lastImpl any

	consecAborts atomic.Uint32
	disabled     atomic.Bool
	migrations   atomic.Uint64
	abortedMig   atomic.Uint64
	curRung      atomic.Int32
	enterNS      atomic.Int64
	inRung       []atomic.Int64
}

// newMeta builds the engine on ladder's first rung. A non-nil obs
// observes the epoch register and the announce slots, so that under
// internal/sched's controller the whole migration window becomes
// deterministically schedulable.
func newMeta[T any, R rung[T]](n int, t Thresholds, obs memory.Observer, ladder []step[T, R], decide func(int, uint64, int) (bool, bool)) *meta[T, R] {
	m := &meta[T, R]{
		ann:     make([]annSlot, n),
		ladder:  ladder,
		t:       t,
		decide:  decide,
		ops:     make([]counter, n),
		prevOps: make([]uint64, n),
		inRung:  make([]atomic.Int64, len(ladder)),
	}
	for i := range m.ann {
		m.ann[i].w.Observe(obs)
	}
	first := ladder[0].build(0, nil)
	m.state = memory.NewRefObserved(&record[R]{gen: 1, impl: first}, obs)
	m.lastImpl = first
	m.enterNS.Store(time.Now().UnixNano())
	return m
}

// enter announces pid on rec's epoch and re-validates the record
// pointer: the Dekker handshake with a migrator opening a window. It
// reports false, with the announce cleared, when the epoch moved.
func (m *meta[T, R]) enter(pid int, rec *record[R]) bool {
	m.ann[pid].w.Write(rec.gen)
	if m.state.Read() == rec {
		return true
	}
	m.ann[pid].w.Write(0)
	return false
}

// exit clears pid's announce.
func (m *meta[T, R]) exit(pid int) { m.ann[pid].w.Write(0) }

// do runs one strong operation on a gated ladder: read the epoch
// record, enter, run the operation on the validated rung, exit. An
// open migration window is helped to a resolution first.
func (m *meta[T, R]) do(pid int, op func(R) (T, error)) (T, error) {
	for {
		rec := m.state.Read()
		if rec.mig {
			m.help(pid, rec)
			continue
		}
		if !m.enter(pid, rec) {
			continue
		}
		v, err := op(rec.impl)
		m.exit(pid)
		m.account(pid)
		return v, err
	}
}

// help drives an open migration window toward a resolution. A gated
// source is quiesced and the window sealed, or the window aborts when
// quiescence cannot be reached within the budget; an in-place source
// is left to its opener until it is frozen. A frozen source is then
// completed. Any process can help, which is what makes a crashed
// migrator harmless.
//
// The seal CAS is what makes the snapshot safe. An abort re-publishes
// the source, so operations resume on it; a helper that quiesced just
// before someone else aborted would otherwise read a live source:
// value slots that live pops clear, or a list walk that need not end
// (DESIGN §9). The seal succeeds only while the unaborted window is
// still current, and a sealed window is never aborted, so once sealed
// the source takes no more operations and every helper may read it.
func (m *meta[T, R]) help(pid int, rec *record[R]) {
	if !rec.sealed {
		if f, ok := any(rec.impl).(inPlace); ok {
			if !f.frozen() {
				return
			}
		} else {
			if !quiesceSlots(m.ann, pid, m.t.quiesceBudget()) {
				m.abort(rec)
				return
			}
			sealed := &record[R]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, sealed: true, dst: rec.dst}
			if !m.state.CAS(rec, sealed) {
				return
			}
			rec = sealed
		}
	}
	m.complete(pid, rec)
}

// complete finishes a window whose source is frozen: snapshot it,
// build the target privately, and publish target-plus-close in one
// CAS. Losers of the close CAS discard their private target.
func (m *meta[T, R]) complete(pid int, rec *record[R]) {
	dst := m.ladder[rec.dst].build(pid, rec.impl.snapshot())
	if m.state.CAS(rec, &record[R]{gen: rec.gen + 1, rung: rec.dst, impl: dst}) {
		m.migrations.Add(1)
		m.consecAborts.Store(0)
		m.curRung.Store(int32(rec.dst))
		now := time.Now().UnixNano()
		prev := m.enterNS.Swap(now)
		m.inRung[rec.rung].Add(now - prev)
	}
}

// abort re-publishes an unsealed window's source as a stable record.
// After abortLimit consecutive aborts the object stops adapting.
func (m *meta[T, R]) abort(rec *record[R]) {
	if m.state.CAS(rec, &record[R]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl}) {
		m.abortedMig.Add(1)
		if m.consecAborts.Add(1) >= abortLimit {
			m.disabled.Store(true)
		}
	}
}

// migrate opens a migration window from rec to dst and drives it. An
// in-place source is frozen by the opener alone, so an exhausted
// freeze budget aborts with no counterparty to race.
func (m *meta[T, R]) migrate(pid int, rec *record[R], dst int) {
	mig := &record[R]{gen: rec.gen + 1, rung: rec.rung, impl: rec.impl, mig: true, dst: dst}
	if !m.state.CAS(rec, mig) {
		return
	}
	f, ok := any(mig.impl).(inPlace)
	switch {
	case !ok:
		m.help(pid, mig)
	case f.freeze(m.t.quiesceBudget()):
		m.complete(pid, mig)
	default:
		m.abort(mig)
	}
}

// account bumps pid's operation counter and runs an adaptation
// decision at window boundaries.
func (m *meta[T, R]) account(pid int) {
	n := m.ops[pid].v.Add(1)
	if m.t.Window > 0 && n%uint64(m.t.Window) == 0 {
		m.maybeAdapt(pid)
	}
}

// maybeAdapt takes one adaptation decision under the try-lock: read
// the current rung's contended-operation delta and the set of pids
// active since the last decision, then climb or descend by the
// ladder's rule. Climbing is checked first, so a saturated signal
// never descends.
func (m *meta[T, R]) maybeAdapt(pid int) {
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
	if any(rec.impl) == m.lastImpl {
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
	up, down := m.decide(rec.rung, delta, act)
	switch {
	case up && rec.rung < len(m.ladder)-1:
		m.migrate(pid, rec, rec.rung+1)
	case down && rec.rung > 0:
		m.migrate(pid, rec, rec.rung-1)
	}
}

// MorphTo steps the object rung by rung to dst (an index into Rungs),
// ignoring thresholds; it reports whether dst was reached. It is the
// test hook behind the migration-forcing fuzzers.
func (m *meta[T, R]) MorphTo(pid, dst int) bool {
	if dst < 0 || dst >= len(m.ladder) {
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

// Stats returns the migration counters and time-in-regime without
// touching the (possibly observed) epoch register, so it is safe
// outside replayed schedules.
func (m *meta[T, R]) Stats() Stats {
	cur := int(m.curRung.Load())
	st := Stats{
		Migrations: m.migrations.Load(),
		Aborted:    m.abortedMig.Load(),
		Rung:       m.ladder[cur].name,
		InRung:     make(map[string]time.Duration, len(m.ladder)),
	}
	now := time.Now().UnixNano()
	for i, s := range m.ladder {
		d := m.inRung[i].Load()
		if i == cur {
			d += now - m.enterNS.Load()
		}
		if d > 0 {
			st.InRung[s.name] = time.Duration(d)
		}
	}
	return st
}

// Rung returns the current rung's name.
func (m *meta[T, R]) Rung() string { return m.ladder[m.curRung.Load()].name }

// Rungs returns the ladder's rung names, bottom first.
func (m *meta[T, R]) Rungs() []string {
	names := make([]string, len(m.ladder))
	for i, s := range m.ladder {
		names[i] = s.name
	}
	return names
}

// Unwrap returns the current rung's concrete backend. After a morph it
// returns the new rung, so callers holding extensions across
// migrations must re-Unwrap.
func (m *meta[T, R]) Unwrap() any { return m.state.Read().impl.inner() }
