package set

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// stressN scales a stress-test iteration budget: the full budget by
// default, a twentieth (min 100) under -short so `go test -short`
// finishes fast (the CI race job runs short; full budgets remain the
// local default).
func stressN(full int) int {
	if testing.Short() {
		if full /= 20; full < 100 {
			full = 100
		}
	}
	return full
}

// accounted drives procs goroutines of a mixed add/remove/contains
// workload over a small key range and verifies the set tier's
// conservation invariant: successful adds and removes of each key
// strictly alternate, so at quiescence adds(k) - removes(k) is 1 when
// k ended in the set and 0 when it did not. A lost update, a double
// insert, or a resurrection through a recycled node breaks the
// balance.
func accounted(t *testing.T, procs, perProc, keyRange int,
	add func(pid int, k uint64) bool,
	remove func(pid int, k uint64) bool,
	contains func(pid int, k uint64) bool,
) {
	t.Helper()
	adds := make([]atomic.Int64, keyRange)
	removes := make([]atomic.Int64, keyRange)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(pid)*0x9e37 + 1)
			for i := 0; i < perProc; i++ {
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					if add(pid, k) {
						adds[k].Add(1)
					}
				case 1:
					if remove(pid, k) {
						removes[k].Add(1)
					}
				default:
					contains(pid, k)
				}
			}
		}(p)
	}
	wg.Wait()
	for k := 0; k < keyRange; k++ {
		diff := adds[k].Load() - removes[k].Load()
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: %d successful adds vs %d removes (diff %d)",
				k, adds[k].Load(), removes[k].Load(), diff)
		}
		if got, want := contains(0, uint64(k)), diff == 1; got != want {
			t.Fatalf("key %d: Contains = %v, accounting says %v", k, got, want)
		}
	}
}

// retryWeak lifts the abortable set to the strong surface for the
// stress harness.
func retryWeak(s *Abortable) (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
	add := func(_ int, k uint64) bool {
		for {
			if ok, err := s.TryAdd(k); err == nil {
				return ok
			}
		}
	}
	remove := func(_ int, k uint64) bool {
		for {
			if ok, err := s.TryRemove(k); err == nil {
				return ok
			}
		}
	}
	has := func(_ int, k uint64) bool { return s.Contains(k) }
	return add, remove, has
}

func TestAbortableAccounting(t *testing.T) {
	add, remove, has := retryWeak(NewAbortable())
	accounted(t, 4, stressN(4000), 16, add, remove, has)
}

func TestSensitiveAccounting(t *testing.T) {
	const procs = 4
	s := NewSensitive(procs)
	accounted(t, procs, stressN(4000), 16, s.Add, s.Remove, s.Contains)
}

func TestNonBlockingAccounting(t *testing.T) {
	s := NewNonBlocking()
	accounted(t, 4, stressN(4000), 16, s.Add, s.Remove, s.Contains)
}

func TestHarrisAccounting(t *testing.T) {
	const procs = 4
	s := NewHarris(procs)
	accounted(t, procs, stressN(6000), 16, s.Add, s.Remove, s.Contains)
	// The churn above retires and reuses nodes constantly; recycling
	// actually happening is part of what the invariant just vetted.
	if st := s.PoolStats(); st.Reuses == 0 {
		t.Fatal("stress run never recycled a node")
	}
}

func TestCombiningAccounting(t *testing.T) {
	const procs = 4
	s := NewCombining(procs)
	accounted(t, procs, stressN(4000), 16, s.Add, s.Remove, s.Contains)
}

// TestCombiningContendedAccounting forces every operation through the
// publication list (no fast path), the path a solo test never takes.
func TestCombiningContendedAccounting(t *testing.T) {
	const procs = 4
	s := NewCombining(procs)
	accounted(t, procs, stressN(2000), 8,
		s.AddContended, s.RemoveContended, s.ContainsContended)
}

func TestHashAccounting(t *testing.T) {
	const procs = 4
	s := NewHash(procs)
	// Key range 256 forces several table doublings mid-stress, so the
	// conservation invariant also vets operations racing a publish
	// (stale-mask walks, lost shortcut caches).
	accounted(t, procs, stressN(6000), 256, s.Add, s.Remove, s.Contains)
	if st := s.PoolStats(); st.Reuses == 0 {
		t.Fatal("stress run never recycled a node")
	}
	if s.Resizes() == 0 {
		t.Fatalf("stress over 256 keys never resized (buckets %d)", s.Buckets())
	}
	if got, want := s.Size(), s.Len(); got != want {
		t.Fatalf("Size() = %d (sum of the pid stripes), Len() = %d at quiescence", got, want)
	}
}

// TestHashSingleBucketWar concentrates every process on keys of one
// bucket (stride = a large power of two, so all keys share low bits):
// maximal split-chain contention plus recycle pressure on one window.
func TestHashSingleBucketWar(t *testing.T) {
	const procs = 4
	s := NewHash(procs)
	perProc := stressN(4000)
	var wg sync.WaitGroup
	adds := make([]int64, procs)
	removes := make([]int64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(pid)*0xb1c + 7)
			for i := 0; i < perProc; i++ {
				k := uint64(rng.Intn(4)) << 40 // same bucket at every realistic mask
				if rng.Intn(2) == 0 {
					if s.Add(pid, k) {
						adds[pid]++
					}
				} else if s.Remove(pid, k) {
					removes[pid]++
				}
			}
		}(p)
	}
	wg.Wait()
	var a, r int64
	for p := 0; p < procs; p++ {
		a, r = a+adds[p], r+removes[p]
	}
	if got := int64(s.Len()); a-r != got {
		t.Fatalf("adds %d - removes %d = %d, but %d keys resident", a, r, a-r, got)
	}
	if got, want := s.Len(), s.Size(); got != want {
		t.Fatalf("Len() = %d disagrees with Size() = %d at quiescence", got, want)
	}
}

// TestHarrisSingleKeyWar pits every process against ONE key — the
// densest possible recycle-and-relink pressure on a single window:
// each successful add hands the node to a remover, whose free list
// feeds the next add at the same handle.
func TestHarrisSingleKeyWar(t *testing.T) {
	const procs = 4
	s := NewHarris(procs)
	perProc := stressN(8000)
	adds := make([]int64, procs)
	removes := make([]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				if s.Add(pid, 7) {
					adds[pid]++
				}
				if s.Remove(pid, 7) {
					removes[pid]++
				}
			}
		}(p)
	}
	wg.Wait()
	var a, r int64
	for p := 0; p < procs; p++ {
		a += adds[p]
		r += removes[p]
	}
	final := int64(0)
	if s.Contains(0, 7) {
		final = 1
	}
	if a-r != final {
		t.Fatalf("adds %d - removes %d = %d, want %d (final membership)", a, r, a-r, final)
	}
	if got := s.Len(); int64(got) != final {
		t.Fatalf("Len() = %d after single-key war, want %d", got, final)
	}
}
