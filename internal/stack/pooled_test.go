package stack

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"weak"

	"repro/internal/lock"
	"repro/internal/spec"
)

// pooledVsSpec cross-checks a solo pid-aware weak stack against the
// sequential spec (the pooled sibling of interpretOps).
func pooledVsSpec(t *testing.T, k, ops int,
	tryPush func(pid int, v uint64) error,
	tryPop func(pid int) (uint64, error),
) {
	t.Helper()
	ref := spec.NewStack[uint64](k)
	for i := 0; i < ops; i++ {
		if i%3 != 1 {
			v := uint64(i)
			err := tryPush(0, v)
			if ref.Push(v) {
				if err != nil {
					t.Fatalf("op %d: push(%d) = %v, spec accepted", i, v, err)
				}
			} else if !errors.Is(err, ErrFull) {
				t.Fatalf("op %d: push(%d) = %v, spec reports full", i, v, err)
			}
		} else {
			v, err := tryPop(0)
			want, ok := ref.Pop()
			if ok {
				if err != nil || v != want {
					t.Fatalf("op %d: pop = (%d, %v), spec has %d", i, v, err, want)
				}
			} else if !errors.Is(err, ErrEmpty) {
				t.Fatalf("op %d: pop = (%d, %v), spec reports empty", i, v, err)
			}
		}
	}
}

func TestTreiberPooledMatchesSpecSolo(t *testing.T) {
	s := NewTreiber[uint64](1)
	pooledVsSpec(t, 1<<30, 5000, s.TryPush, s.TryPop)
	st := s.PoolStats()
	if st.Reuses == 0 {
		t.Fatalf("solo churn never recycled a node: %+v", st)
	}
}

func TestAbortablePooledMatchesSpecSolo(t *testing.T) {
	const k = 4
	s := NewAbortable[uint64](k, 1)
	pooledVsSpec(t, k, 5000, s.TryPush, s.TryPop)
	if st := s.PoolStats(); st.Reuses == 0 {
		t.Fatalf("solo churn never recycled a record: %+v", st)
	}
}

// TestAbortablePooledAgreesWithBoxed runs the arena-backed Figure 1
// stack in lockstep with Packed, the one-word machine model that holds
// its values in the registers themselves.
func TestAbortablePooledAgreesWithBoxed(t *testing.T) {
	const k = 3
	packed := NewPacked(k)
	pooled := NewAbortable[uint32](k, 1)
	for i := 0; i < 4000; i++ {
		if i%5 < 3 {
			v := uint32(i)
			be, pe := packed.TryPush(0, v), pooled.TryPush(0, v)
			if be != pe {
				t.Fatalf("op %d: push disagreement: packed=%v pooled=%v", i, be, pe)
			}
		} else {
			bv, be := packed.TryPop(0)
			pv, pe := pooled.TryPop(0)
			if be != pe || bv != pv {
				t.Fatalf("op %d: pop disagreement: (%d,%v) vs (%d,%v)", i, bv, be, pv, pe)
			}
		}
	}
}

func TestTreiberPooledConserves(t *testing.T) {
	procs, perProc := 8, stressN(3000)
	s := NewTreiber[uint64](procs)
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
	st := s.PoolStats()
	if st.Reuses == 0 {
		t.Fatalf("concurrent churn never recycled: %+v", st)
	}
}

func TestCombiningPooledConserves(t *testing.T) {
	// The arena-backed weak stack under the flat-combining
	// construction: strong, starvation-free, and allocation-free.
	procs, perProc, k := 6, stressN(1500), 32
	s := NewCombining[uint64](k, procs)
	conserved(t, procs, perProc,
		s.Push,
		s.Pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := s.Pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
}

func TestAbortablePooledSnapshotAndLen(t *testing.T) {
	s := NewAbortable[uint64](8, 1)
	for i := uint64(1); i <= 5; i++ {
		if err := s.TryPush(0, i*10); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	snap := s.Snapshot()
	want := []uint64{10, 20, 30, 40, 50}
	if len(snap) != len(want) {
		t.Fatalf("Snapshot = %v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", snap, want)
		}
	}
}

// TestTreiberPooledForcedReuseABA keeps the stack near-empty — every
// worker pops right after it pushes — so nearly every push lands on a
// just-recycled node: the §2.2 window at maximum pressure.
// Conservation proves the sequence tags are doing their job (a single
// wrongly successful stale CAS would duplicate or lose a value).
func TestTreiberPooledForcedReuseABA(t *testing.T) {
	procs, perProc := 4, stressN(5000)
	s := NewTreiber[uint64](procs)
	var wg sync.WaitGroup
	popped := make([][]uint64, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				_ = s.Push(pid, uint64(pid)<<32|uint64(i))
				if v, err := s.Pop(pid); err == nil {
					popped[pid] = append(popped[pid], v)
				}
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for {
		v, err := s.Pop(0)
		if err != nil {
			break
		}
		seen[v]++
	}
	if len(seen) != procs*perProc {
		t.Fatalf("value set size = %d, want %d (lost values)", len(seen), procs*perProc)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x observed %d times (duplicated)", v, n)
		}
	}
	st := s.PoolStats()
	if st.Reuses < st.Allocs {
		t.Fatalf("reuse did not dominate: %+v", st)
	}
	if st.Drops != 0 {
		t.Fatalf("pool dropped %d handles (overflow too small)", st.Drops)
	}
}

// record is a multi-word value with a pointer-carrying field: a value
// torn by a concurrent writer shows up as fields that disagree.
type record struct {
	a, b, c uint64
	s       string
}

func makeRecord(v uint64) record { return record{v, ^v, v * 7, strconv.FormatUint(v, 16)} }

// key returns the value the record was made from, reporting a torn
// record.
func (r record) key(t *testing.T) uint64 {
	if r.b != ^r.a || r.c != r.a*7 || r.s != strconv.FormatUint(r.a, 16) {
		t.Errorf("torn record %+v", r)
	}
	return r.a
}

// TestTreiberConservesRecords runs the conservation workload at a
// multi-word T. Values are plain fields owned by whoever holds the
// node: under -race a value read or written outside that window —
// before the head CAS that hands the node over — is a data race.
func TestTreiberConservesRecords(t *testing.T) {
	procs, perProc := 4, max(stressN(20000), 5000)
	s := NewTreiber[record](procs)
	pop := func(pid int) (uint64, error) {
		r, err := s.Pop(pid)
		if err != nil {
			return 0, err
		}
		return r.key(t), nil
	}
	conserved(t, procs, perProc,
		func(pid int, v uint64) error { return s.Push(pid, makeRecord(v)) },
		pop,
		func() []uint64 {
			var out []uint64
			for {
				v, err := pop(0)
				if err != nil {
					return out
				}
				out = append(out, v)
			}
		},
	)
}

// pushFresh pushes a freshly allocated record and returns only a weak
// pointer to it, so no strong reference outlives the call except the
// stack's own.
//
//go:noinline
func pushFresh(t *testing.T, s *Treiber[*[64]byte]) weak.Pointer[[64]byte] {
	p := new([64]byte)
	if err := s.Push(0, p); err != nil {
		t.Fatal(err)
	}
	return weak.Make(p)
}

// TestTreiberPopReleasesValue checks that a recycled node does not
// retain what it handed out: once popped (and dropped by the caller),
// a value must be collectable even though its node waits in the pool.
func TestTreiberPopReleasesValue(t *testing.T) {
	s := NewTreiber[*[64]byte](1)
	kept := pushFresh(t, s)
	popped := pushFresh(t, s)
	if p, err := s.Pop(0); err != nil || p != popped.Value() {
		t.Fatalf("pop = (%p, %v), want the top record", p, err)
	}
	runtime.GC()
	if popped.Value() != nil {
		t.Fatal("a popped value is still reachable from the pool")
	}
	if kept.Value() == nil {
		t.Fatal("a stacked value was collected")
	}
	runtime.KeepAlive(s)
}

// TestAbortableConservesPointers runs the conservation workload at a
// pointer T over one arena-backed Figure 1 stack shared by a Figure 3
// and a Figure 2 wrapper, so guarded and bare retries interleave. A
// value slot is plain memory owned by one process at a time: under
// -race a read or write outside that window — a helper or line 11
// touching a value, or a pop reading before its TOP CAS — is a data
// race, and a slot reused too early shows up as a wrong value.
func TestAbortableConservesPointers(t *testing.T) {
	procs, perProc, k := 4, stressN(4000), 16
	weak := NewAbortable[*uint64](k, procs)
	se := NewSensitiveFrom[*uint64](weak, procs, lock.NewRoundRobin(lock.NewTAS(), procs), nil)
	nb := NewNonBlockingFrom[*uint64](weak, nil)
	push := func(pid int, v uint64) error {
		if pid%2 == 0 {
			return se.Push(pid, &v)
		}
		return nb.Push(pid, &v)
	}
	pop := func(pid int) (uint64, error) {
		var p *uint64
		var err error
		if pid%2 == 0 {
			p, err = se.Pop(pid)
		} else {
			p, err = nb.Pop(pid)
		}
		if err != nil {
			return 0, err
		}
		return *p, nil
	}
	conserved(t, procs, perProc, push, pop, func() []uint64 {
		var out []uint64
		for {
			v, err := pop(0)
			if err != nil {
				return out
			}
			out = append(out, v)
		}
	})
	if st := weak.PoolStats(); st.Reuses == 0 || st.Drops != 0 {
		t.Fatalf("arena did not recycle cleanly: %+v", st)
	}
}

// pushFreshAbortable is pushFresh for the Figure 1 stack.
//
//go:noinline
func pushFreshAbortable(t *testing.T, s *Abortable[*[64]byte]) weak.Pointer[[64]byte] {
	p := new([64]byte)
	if err := s.TryPush(0, p); err != nil {
		t.Fatal(err)
	}
	return weak.Make(p)
}

// TestAbortablePopReleasesValue checks that the arena does not retain
// what a pop handed out: the slot goes back to the free list cleared,
// so a popped value is collectable although STACK[] still holds its
// handle.
func TestAbortablePopReleasesValue(t *testing.T) {
	s := NewAbortable[*[64]byte](4, 1)
	kept := pushFreshAbortable(t, s)
	popped := pushFreshAbortable(t, s)
	_ = pushFreshAbortable(t, s) // helps STACK[2] to popped's handle
	if _, err := s.TryPop(0); err != nil {
		t.Fatal(err)
	}
	if p, err := s.TryPop(0); err != nil || p != popped.Value() {
		t.Fatalf("pop = (%p, %v), want the second record", p, err)
	}
	runtime.GC()
	if popped.Value() != nil {
		t.Fatal("a popped value is still reachable from the arena")
	}
	if kept.Value() == nil {
		t.Fatal("a stacked value was collected")
	}
	runtime.KeepAlive(s)
}

// TestStacksSoloAllocFree pins a solo push+pop at 0 allocations on the
// Figure 1 stack and on the strong stacks built over it.
func TestStacksSoloAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ab := NewAbortable[uint64](16, 1)
	se := NewSensitive[uint64](16, 1)
	nb := NewNonBlocking[uint64](16, 1)
	co := NewCombining[uint64](16, 1)
	for name, op := range map[string]func(){
		"abortable": func() {
			_ = ab.TryPush(0, 7)
			_, _ = ab.TryPop(0)
		},
		"sensitive": func() {
			_ = se.Push(0, 7)
			_, _ = se.Pop(0)
		},
		"non-blocking": func() {
			_ = nb.Push(0, 7)
			_, _ = nb.Pop(0)
		},
		"combining": func() {
			_ = co.Push(0, 7)
			_, _ = co.Pop(0)
		},
	} {
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("%s: solo push+pop = %v allocs, want 0", name, n)
		}
	}
}

// TestTreiberSoloAllocFree pins a solo push+pop at 0 allocations.
func TestTreiberSoloAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := NewTreiber[uint64](1)
	if n := testing.AllocsPerRun(1000, func() {
		_ = s.Push(0, 7)
		_, _ = s.Pop(0)
	}); n != 0 {
		t.Errorf("solo push+pop = %v allocs, want 0", n)
	}
}

func BenchmarkTreiberSolo(b *testing.B) {
	b.ReportAllocs()
	s := NewTreiber[uint64](1)
	for i := 0; i < b.N; i++ {
		_ = s.Push(0, uint64(i))
		_, _ = s.Pop(0)
	}
}

func BenchmarkAbortablePooledSolo(b *testing.B) {
	b.ReportAllocs()
	s := NewAbortable[uint64](16, 1)
	for i := 0; i < b.N; i++ {
		_ = s.TryPush(0, uint64(i))
		_, _ = s.TryPop(0)
	}
}

// BenchmarkSensitiveStackSolo is objbench's stack-solo at the algorithm
// layer: pid 0 alone runs a 50/50 push/pop mix on the Figure 3 stack of
// capacity 1024, prefilled with 512, so every operation completes on
// the guard's shortcut over one pooled Figure 1 attempt.
func BenchmarkSensitiveStackSolo(b *testing.B) {
	b.ReportAllocs()
	const k = 1024
	s := NewSensitive[uint64](k, 1)
	for i := range k / 2 {
		_ = s.Push(0, uint64(i))
	}
	x := uint64(0x9e3779b97f4a7c15) // xorshift64 state
	b.ResetTimer()
	for range b.N {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			_ = s.Push(0, x)
		} else {
			_, _ = s.Pop(0)
		}
	}
}
