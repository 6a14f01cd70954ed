package set

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/memory"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestSplitOrderKeys pins the sort-key encoding: sentinels even,
// regulars odd, bijective, and every bucket's sentinel strictly before
// every key of that bucket at any power-of-two table size.
func TestSplitOrderKeys(t *testing.T) {
	for _, k := range []uint64{0, 1, 2, 3, 6, 255, 1 << 40, hashMaxKey} {
		sk := regularSkey(k)
		if sk&1 != 1 {
			t.Fatalf("regularSkey(%d) = %#x, want odd", k, sk)
		}
		if got := keyOfSkey(sk); got != k {
			t.Fatalf("keyOfSkey(regularSkey(%d)) = %d", k, got)
		}
	}
	for mask := uint64(1); mask <= 15; mask = mask<<1 | 1 {
		for k := uint64(0); k < 64; k++ {
			b := k & mask
			if sentinelSkey(b)&1 != 0 {
				t.Fatalf("sentinelSkey(%d) odd", b)
			}
			if sentinelSkey(b) >= regularSkey(k) {
				t.Fatalf("mask %d: sentinel %d (%#x) not before key %d (%#x)",
					mask, b, sentinelSkey(b), k, regularSkey(k))
			}
			// No foreign bucket's sentinel falls between b's sentinel
			// and k: k's walk from its sentinel crosses only its own
			// bucket (plus child sentinels of that bucket).
			for o := uint64(0); o <= mask; o++ {
				if o != b && sentinelSkey(o) > sentinelSkey(b) && sentinelSkey(o) < regularSkey(k) {
					t.Fatalf("mask %d: sentinel %d inside bucket %d's run before key %d", mask, o, b, k)
				}
			}
		}
	}
}

// TestHashKeyRangePanics checks the reserved-bit boundary.
func TestHashKeyRangePanics(t *testing.T) {
	s := NewHash(1)
	if !s.Add(0, hashMaxKey) {
		t.Fatal("Add(2^63-1) = false")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(2^63) did not panic")
		}
	}()
	s.Add(0, 1<<63)
}

// TestHashSoloVsSpec drives the hash set through a seeded solo stream
// wide enough to force several table doublings and cross-checks every
// answer against the sequential reference.
func TestHashSoloVsSpec(t *testing.T) {
	s := NewHash(1)
	ref := spec.NewSet()
	rng := workload.NewRNG(0xba5e)
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(512))
		var got, want bool
		switch rng.Intn(3) {
		case 0:
			got, want = s.Add(0, k), ref.Add(k)
		case 1:
			got, want = s.Remove(0, k), ref.Remove(k)
		default:
			got, want = s.Contains(0, k), ref.Contains(k)
		}
		if got != want {
			t.Fatalf("op %d key %d: hash %v, spec %v", i, k, got, want)
		}
	}
	if s.Resizes() == 0 {
		t.Fatalf("512-key stream never resized (buckets %d)", s.Buckets())
	}
	if got, want := s.Size(), ref.Len(); got != want {
		t.Fatalf("Size() = %d, spec %d", got, want)
	}
	if got, want := s.Len(), ref.Len(); got != want {
		t.Fatalf("Len() = %d, spec %d", got, want)
	}
	snap := s.Snapshot()
	for i, k := range snap {
		if i > 0 && snap[i-1] >= k {
			t.Fatalf("Snapshot not ascending at %d: %v", i, snap[i:])
		}
		if !ref.Contains(k) {
			t.Fatalf("Snapshot holds %d, spec does not", k)
		}
	}
}

// TestHashGrowth checks the doubling trigger and that growth preserves
// contents: every key stays reachable across every resize, including
// through stale-table windows (operations racing the publish).
func TestHashGrowth(t *testing.T) {
	s := NewHash(1)
	if s.Buckets() != hashInitialBuckets {
		t.Fatalf("fresh table has %d buckets, want %d", s.Buckets(), hashInitialBuckets)
	}
	const n = 1 << 10
	for k := uint64(0); k < n; k++ {
		if !s.Add(0, k) {
			t.Fatalf("Add(%d) = false", k)
		}
	}
	if s.Buckets() < n/(2*hashMaxLoad) {
		t.Fatalf("after %d adds: %d buckets (load %d) — doubling never kept up",
			n, s.Buckets(), hashMaxLoad)
	}
	if s.Resizes() == 0 {
		t.Fatal("no resize recorded")
	}
	for k := uint64(0); k < n; k++ {
		if !s.Contains(0, k) {
			t.Fatalf("key %d lost across resizes", k)
		}
	}
	for k := uint64(0); k < n; k += 2 {
		if !s.Remove(0, k) {
			t.Fatalf("Remove(%d) = false", k)
		}
	}
	if got := s.Size(); got != n/2 {
		t.Fatalf("Size() = %d after removing half, want %d", got, n/2)
	}
	if got := s.Len(); got != n/2 {
		t.Fatalf("Len() = %d after removing half, want %d", got, n/2)
	}
}

// TestHashResizeCadence pins when the per-pid resize check doubles the
// table. Below hashCheckDiv buckets every pid checks after every add,
// so the table doubles at exactly the add whose count first exceeds
// hashMaxLoad·buckets, whichever pids made the adds. Above it a pid
// checks after every buckets/hashCheckDiv of its own adds, so each pid
// can hold fewer than that many unchecked adds: one pid doubles within
// buckets/hashCheckDiv adds of the crossing, procs pids within procs
// times that. The two-pid run alternates pids, so at the first
// doubling neither stripe alone exceeds the threshold.
func TestHashResizeCadence(t *testing.T) {
	for _, procs := range []int{1, 2} {
		s := NewHash(procs)
		doublings := 0
		for n := 1; n <= 1<<14; n++ {
			b := s.Buckets()
			pid := n % procs
			if !s.Add(pid, uint64(n)) {
				t.Fatalf("procs %d: Add(%d) = false", procs, n)
			}
			cross := hashMaxLoad*b + 1 // the add whose count first exceeds the bound
			within := 1
			if b >= hashCheckDiv {
				within = procs * b / hashCheckDiv
			}
			switch grown := s.Buckets(); {
			case grown == 2*b:
				if n < cross || n >= cross+within {
					t.Fatalf("procs %d: %d → %d buckets at add %d, want in [%d, %d)", procs, b, grown, n, cross, cross+within)
				}
				if procs == 2 && b == hashInitialBuckets {
					for p := range s.stripes {
						if c := s.stripes[p].count.Load(); c > hashMaxLoad*int64(b) {
							t.Fatalf("pid %d's stripe alone holds %d > %d keys at the first doubling", p, c, hashMaxLoad*b)
						}
					}
				}
				doublings++
			case grown != b:
				t.Fatalf("procs %d: %d → %d buckets at add %d, want one doubling at most", procs, b, grown, n)
			case n >= cross+within-1:
				t.Fatalf("procs %d: still %d buckets after add %d, want a doubling by add %d", procs, b, n, cross+within-1)
			}
		}
		if got := s.Size(); got != 1<<14 {
			t.Fatalf("procs %d: Size() = %d, want %d", procs, got, 1<<14)
		}
		if want := 12; doublings != want || s.Resizes() != uint64(want) {
			t.Fatalf("procs %d: %d doublings (%d resizes), want %d", procs, doublings, s.Resizes(), want)
		}
	}
}

// TestHashRecyclesNodes checks that the hash layer inherits the pool
// discipline: removed nodes come back through the per-pid free lists.
func TestHashRecyclesNodes(t *testing.T) {
	s := NewHash(1)
	for i := 0; i < 200; i++ {
		k := uint64(i % 8)
		s.Add(0, k)
		s.Remove(0, k)
	}
	if st := s.PoolStats(); st.Reuses == 0 {
		t.Fatal("churn never recycled a node")
	}
}

// TestHashWalkFlat measures the structural point of split ordering: a
// membership walk from the bucket sentinel touches O(load factor)
// nodes regardless of the resident population, where the plain list
// walks O(n). Counted via the observer (next-register reads only grow
// with chain length).
func TestHashWalkFlat(t *testing.T) {
	costOf := func(n uint64) uint64 {
		var st obsCounter
		s := NewHashObserved(1, &st)
		for k := uint64(0); k < n; k++ {
			s.Add(0, k)
		}
		st.n = 0
		const probes = 64
		for k := uint64(0); k < probes; k++ {
			s.Contains(0, k*(n/probes))
		}
		return st.n / probes
	}
	small, large := costOf(1<<8), costOf(1<<14)
	// 64× the keys should not cost anywhere near 64× the accesses;
	// allow generous constant-factor noise (lazy child sentinels etc.).
	if large > 4*small {
		t.Fatalf("per-Contains access cost grew %d → %d across a 64× population (not O(1))",
			small, large)
	}
}

// obsCounter counts observed shared accesses without gating them
// (solo use only; the bench/sched observers are the concurrent ones).
type obsCounter struct{ n uint64 }

func (o *obsCounter) OnAccess(memory.Kind) { o.n++ }

// BenchmarkHashZipfUpdates is objbench's set-write traffic at the
// algorithm layer: GOMAXPROCS workers with distinct pids on one Hash,
// a 45/45/10 add/remove/contains mix over Zipf(1.1)-drawn keys in
// [0, 4096), every even key prefilled. Hot keys and every successful
// update's bookkeeping are where the workers meet.
func BenchmarkHashZipfUpdates(b *testing.B) {
	b.ReportAllocs()
	const keys = 1 << 12
	s := NewHash(runtime.GOMAXPROCS(0))
	for k := uint64(0); k < keys; k += 2 {
		s.Add(0, k)
	}
	z := workload.NewZipf(1.1, keys)
	var pids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1) - 1)
		rng := workload.NewRNG(uint64(pid+1) * 0x9e3779b97f4a7c15)
		for pb.Next() {
			k := uint64(z.Next(rng))
			switch op := rng.Intn(100); {
			case op < 45:
				s.Add(pid, k)
			case op < 90:
				s.Remove(pid, k)
			default:
				s.Contains(pid, k)
			}
		}
	})
}
