package adaptive

import (
	"sync/atomic"
	"time"

	"repro/internal/memory"
)

// abortLimit is the number of consecutive aborted migration windows
// after which an object stops trying to adapt. A crashed process with
// a stuck announce makes every future quiescence attempt time out;
// giving up keeps the (bounded) quiesce spin off the hot path forever
// after, at the price of staying on the current rung.
const abortLimit = 8

// Thresholds parameterizes when an adaptive object migrates. The
// defaults (DefaultThresholds) are seeded from the measured crossover
// points: E15 for sensitive→combining, E16 for combining→sharded, and
// E18/E19 for the set-size boundaries of the cow→harris→hash ladder.
// A zero Window disables automatic adaptation (MorphTo still works),
// which the deterministic replays use to keep migrations explicit.
type Thresholds struct {
	// Window is the number of operations a single pid completes
	// between adaptation decisions. <= 0 disables automatic decisions.
	Window int
	// UpContended is the contended-operation delta (slow-path entries,
	// publications, or cow aborts, per the current rung) per window at
	// or above which the object climbs a rung.
	UpContended int
	// DownContended is the contended-operation delta per window at or
	// below which the object may descend a rung.
	DownContended int
	// UpProcs is the distinct-active-pid count per window at or above
	// which a container climbs a rung (E15: combining wins from about
	// three contending processes).
	UpProcs int
	// DownProcs is the distinct-active-pid count per window at or
	// below which descent is allowed.
	DownProcs int
	// SetSizeUp are the set sizes opening the harris and hash rungs
	// (E18/E19: the sorted prefix walk loses to the list engine around
	// dozens of keys, to the hash layer around hundreds).
	SetSizeUp [2]int
	// SetSizeDown are the set sizes at or below which the set may
	// descend to cow and harris respectively (hysteresis: half of
	// SetSizeUp by default).
	SetSizeDown [2]int
	// QuiesceBudget bounds the announce-array spin of one migration
	// window; when it is exhausted the window aborts and the source
	// stays current. <= 0 picks a generous default.
	QuiesceBudget int
}

// DefaultThresholds returns the crossover-seeded configuration.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Window:        256,
		UpContended:   64,
		DownContended: 16,
		UpProcs:       3,
		DownProcs:     1,
		SetSizeUp:     [2]int{64, 512},
		SetSizeDown:   [2]int{32, 256},
		QuiesceBudget: 1 << 15,
	}
}

// ForcingThresholds returns a configuration that migrates on every
// window: a one-operation window, a zero climb threshold, and descent
// thresholds no workload can miss, so the object oscillates between
// its top rungs and every history crosses migrations in both
// directions. The lincheck and fuzz harnesses use it to force the
// handoff onto every tested path.
func ForcingThresholds() Thresholds {
	const always = 1 << 30
	return Thresholds{
		Window:        1,
		UpContended:   0,
		DownContended: always,
		UpProcs:       always,
		DownProcs:     always,
		SetSizeUp:     [2]int{0, 0},
		SetSizeDown:   [2]int{always, always},
		QuiesceBudget: 1 << 12,
	}
}

// quiesceBudget returns the effective spin budget.
func (t Thresholds) quiesceBudget() int {
	if t.QuiesceBudget > 0 {
		return t.QuiesceBudget
	}
	return 1 << 15
}

// Stats is a snapshot of an adaptive object's migration history.
type Stats struct {
	// Migrations counts completed rung changes (closed windows).
	Migrations uint64
	// Aborted counts windows that opened but aborted (quiescence or
	// seal budget exhausted).
	Aborted uint64
	// Rung is the name of the current rung.
	Rung string
	// InRung is the wall-clock time spent on each rung so far
	// (time-in-regime; the current rung includes the running stretch).
	InRung map[string]time.Duration
}

// container is the rung contract of the adaptive stack and queue: a
// rung plus one strong put/take pair.
type container[T any] interface {
	rung[T]
	put(pid int, v T) error
	take(pid int) (T, error)
}

// fill refills a freshly built container from a snapshot, oldest
// first. The target is private until the close CAS publishes it:
// refills run contention-free and cannot overflow (equal capacity), so
// the error is always nil.
func fill[T any](c container[T], pid int, snap []T) container[T] {
	for _, v := range snap {
		c.put(pid, v)
	}
	return c
}

// containerRule is the stack and queue ladders' decision rule: climb
// on a saturated contention or active-pid signal, descend when both
// sit at the floor.
func (t Thresholds) containerRule(_ int, delta uint64, act int) (up, down bool) {
	up = delta >= uint64(t.UpContended) || act >= t.UpProcs
	down = delta <= uint64(t.DownContended) && act <= t.DownProcs
	return up, down
}

// annSlot is one per-pid announce register, padded so concurrent
// announces from different pids never share a cache line.
type annSlot struct {
	w memory.Word
	_ [40]byte
}

// counter is a per-pid padded event counter: the hot path's only
// bookkeeping cost.
type counter struct {
	v atomic.Uint64
	_ [56]byte
}

// sumCounters totals a per-pid counter array.
func sumCounters(cs []counter) uint64 {
	var t uint64
	for i := range cs {
		t += cs[i].v.Load()
	}
	return t
}

// quiesceSlots spin-reads every announce slot except self until all
// are clear, within budget total reads; it reports whether quiescence
// was reached. Every read is an observed access when the slots carry
// an observer, so the deterministic scheduler gates the spin.
func quiesceSlots(ann []annSlot, self, budget int) bool {
	for q := range ann {
		if q == self {
			continue
		}
		for ann[q].w.Read() != 0 {
			budget--
			if budget <= 0 {
				return false
			}
		}
	}
	return true
}
