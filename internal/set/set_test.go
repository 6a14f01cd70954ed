package set

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/spec"
	"repro/internal/workload"
)

// backends returns every set backend under a uniform pid-aware strong
// surface (weak backends retried, which solo never needs more than
// once) plus its name.
func backends(procs int) []struct {
	name     string
	add      func(pid int, k uint64) bool
	remove   func(pid int, k uint64) bool
	contains func(pid int, k uint64) bool
} {
	ab := NewAbortable()
	nb := NewNonBlocking()
	sn := NewSensitive(procs)
	hr := NewHarris(procs)
	cb := NewCombining(procs)
	hs := NewHash(procs)
	return []struct {
		name     string
		add      func(pid int, k uint64) bool
		remove   func(pid int, k uint64) bool
		contains func(pid int, k uint64) bool
	}{
		{"abortable", func(_ int, k uint64) bool { ok, _ := ab.TryAdd(k); return ok },
			func(_ int, k uint64) bool { ok, _ := ab.TryRemove(k); return ok },
			func(_ int, k uint64) bool { return ab.Contains(k) }},
		{"non-blocking", nb.Add, nb.Remove, nb.Contains},
		{"sensitive", sn.Add, sn.Remove, sn.Contains},
		{"harris", hr.Add, hr.Remove, hr.Contains},
		{"combining", cb.Add, cb.Remove, cb.Contains},
		{"hash", hs.Add, hs.Remove, hs.Contains},
	}
}

// TestBackendsMatchSpecSolo drives every backend through one seeded
// solo op stream and cross-checks each answer against spec.Set.
func TestBackendsMatchSpecSolo(t *testing.T) {
	for _, be := range backends(2) {
		t.Run(be.name, func(t *testing.T) {
			ref := spec.NewSet()
			rng := workload.NewRNG(0x5e7 + 1)
			for i := 0; i < 4000; i++ {
				k := uint64(rng.Intn(32))
				switch rng.Intn(3) {
				case 0:
					if got, want := be.add(0, k), ref.Add(k); got != want {
						t.Fatalf("op %d: Add(%d) = %v, spec %v", i, k, got, want)
					}
				case 1:
					if got, want := be.remove(0, k), ref.Remove(k); got != want {
						t.Fatalf("op %d: Remove(%d) = %v, spec %v", i, k, got, want)
					}
				default:
					if got, want := be.contains(0, k), ref.Contains(k); got != want {
						t.Fatalf("op %d: Contains(%d) = %v, spec %v", i, k, got, want)
					}
				}
			}
		})
	}
}

// TestAbortableSnapshotSorted checks the COW list's quiescent views.
func TestAbortableSnapshotSorted(t *testing.T) {
	s := NewAbortable()
	for _, k := range []uint64{5, 1, 9, 3, 7, 1, 9} {
		s.TryAdd(k)
	}
	want := []uint64{1, 3, 5, 7, 9}
	got := s.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("Snapshot() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot() = %v, want %v", got, want)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", s.Len())
	}
	if ok, _ := s.TryRemove(5); !ok {
		t.Fatal("TryRemove(5) = false")
	}
	if s.Contains(5) {
		t.Fatal("Contains(5) after remove")
	}
}

// TestHarrisSnapshotSorted checks the lock-free list's quiescent views
// and that solo recycling (remove feeding the next add) keeps them
// exact.
func TestHarrisSnapshotSorted(t *testing.T) {
	s := NewHarris(1)
	for _, k := range []uint64{5, 1, 9} {
		if !s.Add(0, k) {
			t.Fatalf("Add(%d) = false", k)
		}
	}
	if !s.Remove(0, 5) || s.Remove(0, 5) {
		t.Fatal("Remove(5) sequence wrong")
	}
	if !s.Add(0, 4) { // reuses 5's node
		t.Fatal("Add(4) = false")
	}
	want := []uint64{1, 4, 9}
	got := s.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("Snapshot() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot() = %v, want %v", got, want)
		}
	}
	if st := s.PoolStats(); st.Reuses < 1 {
		t.Fatalf("PoolStats().Reuses = %d, want >= 1", st.Reuses)
	}
}

// TestSensitiveFastPath checks that solo updates stay on the lock-free
// shortcut and that Contains never touches the guard at all.
func TestSensitiveFastPath(t *testing.T) {
	s := NewSensitive(1)
	for i := 0; i < 100; i++ {
		s.Add(0, uint64(i))
		s.Contains(0, uint64(i))
	}
	st := s.Guard().Stats()
	if st.Slow != 0 {
		t.Fatalf("solo run took the slow path %d times", st.Slow)
	}
	if st.Fast != 100 {
		t.Fatalf("fast path count = %d, want 100 (Contains must bypass the guard)", st.Fast)
	}
}

// TestProgressLabels checks the Figure 2/3 sets' labels; Figure 3's
// follows its slow-path lock, so raw TAS (no round-robin) is only
// non-blocking.
func TestProgressLabels(t *testing.T) {
	if NewNonBlocking().Progress() != core.NonBlocking {
		t.Error("NonBlocking label")
	}
	if NewSensitive(2).Progress() != core.StarvationFree {
		t.Error("Sensitive label")
	}
	if NewSensitiveFrom(NewAbortable(), 1, lock.IgnorePid(lock.NewTAS())).Progress() != core.NonBlocking {
		t.Error("Sensitive(raw TAS) label")
	}
}
