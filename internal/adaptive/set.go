package adaptive

import (
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

// upLevel is the cmanager.Adaptive backoff level treated as a climb
// signal when such a manager paces the cow rung's retries: a shared
// backoff that deep means the single root register is saturated.
const upLevel = 3

// Set is the contention-adaptive sorted set: the copy-on-write list
// while small and calm (wait-free reads, trivial aborts), the
// Harris/Michael list once size or abort rate says the single root is
// the bottleneck, the split-ordered hash layer once the sorted walk
// itself dominates (the E18/E19 crossovers). Keys must be < 2^63 (the
// hash rung's reserved bit).
//
// The cow rung needs no announce protocol: its whole abstract state is
// one root register, so a migrator freezes it in place with
// set.Abortable.Seal and any update that raced the flip fails its
// stale root CAS. The harris and hash rungs are multi-register, so
// their updates run under the announce protocol and the engine
// quiesces and seals the window before snapshotting. Reads never
// announce on any rung: the source stays authoritative until the
// close CAS.
type Set struct {
	*meta[uint64, setRung]

	// Retrier paces the cow rung's retries and, with a budget, sheds a
	// fully aborted update, like set.NonBlocking. Its Progress,
	// NonBlocking, is the ladder's: the cow rung's retry loop is the
	// weakest link (the list-engine rungs are lock-free).
	core.Retrier

	// adds/rems maintain the approximate size.
	adds, rems []counter
}

// NewSet returns an adaptive set for n processes governed by t,
// starting on the cow rung.
func NewSet(n int, t Thresholds) *Set { return NewSetObserved(n, t, nil) }

// NewSetObserved is NewSet with every protocol register — the epoch
// record, the announce slots, the cow root, and every register of the
// rungs built by future migrations — reported to obs first: under
// internal/sched's controller the whole migration window becomes
// deterministically schedulable. A nil obs is equivalent to NewSet.
//
// The cow and harris builders insert the ascending snapshot in
// descending order, landing each key at the head, so a rebuild is
// linear, not quadratic.
func NewSetObserved(n int, t Thresholds, obs memory.Observer) *Set {
	s := &Set{adds: make([]counter, n), rems: make([]counter, n)}
	ladder := []step[uint64, setRung]{
		{"cow", func(_ int, snap []uint64) setRung {
			c := &cowRung{s: set.NewAbortableObserved(obs), aborts: make([]counter, n)}
			for i := len(snap) - 1; i >= 0; i-- {
				c.s.TryAdd(snap[i]) // private: never aborts
			}
			return c
		}},
		{"harris", func(pid int, snap []uint64) setRung {
			h := set.NewHarrisObserved(n, obs)
			for i := len(snap) - 1; i >= 0; i-- {
				h.Add(pid, snap[i])
			}
			return listRung{h}
		}},
		{"hash", func(pid int, snap []uint64) setRung {
			h := set.NewHashObserved(n, obs)
			for _, k := range snap {
				h.Add(pid, k)
			}
			return listRung{h}
		}},
	}
	s.meta = newMeta(n, t, obs, ladder, s.rule)
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
func (s *Set) Contains(pid int, k uint64) bool { return s.state.Read().impl.has(pid, k) }

// update runs one strong update through the epoch record.
func (s *Set) update(pid int, k uint64, add bool) bool {
	for attempts := 0; ; {
		rec := s.state.Read()
		cw, cow := rec.impl.(*cowRung)
		switch {
		case cow && rec.mig && cw.frozen():
			s.complete(pid, rec)
		case cow:
			// A live root: stable, or a window whose opener has not
			// sealed it yet (or crashed first). The root CAS
			// arbitrates against the seal, so an update that lands
			// here linearizes before the flip.
			res, err := cw.try(k, add)
			if err == nil {
				s.finish(pid, add, res, attempts)
				return res
			}
			if err == set.ErrAborted {
				cw.aborts[pid].v.Add(1)
				attempts++
				if s.Abort(attempts) {
					return false // budget spent: shed with no effect, like set.NonBlocking
				}
			}
		case rec.mig:
			s.help(pid, rec)
		case s.enter(pid, rec):
			res := rec.impl.(listRung).update(pid, k, add)
			s.exit(pid)
			s.finish(pid, add, res, attempts)
			return res
		}
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
	s.account(pid)
}

// rule is the set ladder's decision rule: climb on size, on the cow
// rung's abort delta, or on a deep cmanager.Adaptive backoff; descend
// on a small size with few active pids (hysteresis between SetSizeUp
// and SetSizeDown).
func (s *Set) rule(rung int, delta uint64, act int) (up, down bool) {
	t := s.t
	a, r := sumCounters(s.adds), sumCounters(s.rems)
	size := 0
	if a > r {
		size = int(a - r) // exact at quiescence, a cheap signal under load
	}
	switch rung {
	case rungCow:
		lvl := 0
		m, _ := s.RetryPolicy()
		if am, ok := m.(*cmanager.Adaptive); ok {
			lvl = am.Level()
		}
		return size >= t.SetSizeUp[0] || delta >= uint64(t.UpContended) || lvl >= upLevel, false
	case rungHarris:
		return size >= t.SetSizeUp[1], size <= t.SetSizeDown[0] && act <= t.DownProcs
	default:
		return false, size <= t.SetSizeDown[1] && act <= t.DownProcs
	}
}

// Len returns the number of keys; quiescent states only.
func (s *Set) Len() int { return len(s.Snapshot()) }

// Snapshot returns the keys in ascending order; quiescent states only.
func (s *Set) Snapshot() []uint64 { return s.state.Read().impl.snapshot() }

// setRung is one rung of the set ladder: a rung that answers
// membership.
type setRung interface {
	rung[uint64]
	has(pid int, k uint64) bool
}

// cowRung is the copy-on-write rung, frozen in place; its contention
// signal is its per-pid count of aborted root CASes.
type cowRung struct {
	s      *set.Abortable
	aborts []counter
}

func (r *cowRung) try(k uint64, add bool) (bool, error) {
	if add {
		return r.s.TryAdd(k)
	}
	return r.s.TryRemove(k)
}

func (r *cowRung) freeze(budget int) bool {
	for r.s.Seal() != nil {
		if budget--; budget <= 0 {
			return false
		}
	}
	return true
}

func (r *cowRung) frozen() bool             { return r.s.Sealed() }
func (r *cowRung) has(_ int, k uint64) bool { return r.s.Contains(k) }
func (r *cowRung) snapshot() []uint64       { return r.s.Snapshot() }
func (r *cowRung) contended() uint64        { return sumCounters(r.aborts) }
func (r *cowRung) inner() any               { return r.s }

// listRung is a gated list-engine rung, *set.Harris or *set.Hash. Its
// contention never climbs the ladder (size does), so it reports none.
type listRung struct {
	s interface {
		set.Strong
		Snapshot() []uint64
	}
}

func (r listRung) update(pid int, k uint64, add bool) bool {
	if add {
		return r.s.Add(pid, k)
	}
	return r.s.Remove(pid, k)
}

func (r listRung) has(pid int, k uint64) bool { return r.s.Contains(pid, k) }
func (r listRung) snapshot() []uint64         { return r.s.Snapshot() }
func (r listRung) contended() uint64          { return 0 }
func (r listRung) inner() any                 { return r.s }

var _ set.Strong = (*Set)(nil)
