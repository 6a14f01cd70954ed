package repro_test

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/cmanager"
	"repro/internal/core"
	"repro/internal/set"
	"repro/internal/stack"
)

func TestPublicStackQuickstart(t *testing.T) {
	const procs = 4
	s := repro.NewStack[string](8, procs)
	if err := s.Push(0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(1, "b"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Pop(2)
	if err != nil || v != "b" {
		t.Fatalf("Pop = (%q, %v), want (b, nil)", v, err)
	}
	if s.Progress() != repro.StarvationFree {
		t.Fatal("stack does not advertise starvation-freedom")
	}
}

func TestPublicStackConcurrent(t *testing.T) {
	const procs, per = 8, 2000
	s := repro.NewStack[int](64, procs)
	var wg sync.WaitGroup
	var popped sync.Map
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					err := s.Push(pid, pid*per+i)
					if err == nil {
						break
					}
					if !errors.Is(err, repro.ErrStackFull) {
						t.Errorf("push: %v", err)
						return
					}
					if v, err := s.Pop(pid); err == nil {
						if _, dup := popped.LoadOrStore(v, true); dup {
							t.Errorf("value %d popped twice", v)
							return
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for {
		v, err := s.Pop(0)
		if err != nil {
			break
		}
		if _, dup := popped.LoadOrStore(v, true); dup {
			t.Fatalf("value %d popped twice in drain", v)
		}
	}
	n := 0
	popped.Range(func(_, _ any) bool { n++; return true })
	if n != procs*per {
		t.Fatalf("recovered %d values, want %d", n, procs*per)
	}
}

func TestPublicQueueFIFO(t *testing.T) {
	q := repro.NewQueue[int](4, 2)
	for i := 1; i <= 3; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for want := 1; want <= 3; want++ {
		v, err := q.Dequeue(1)
		if err != nil || v != want {
			t.Fatalf("Dequeue = (%d, %v), want (%d, nil)", v, err, want)
		}
	}
	if _, err := q.Dequeue(0); !errors.Is(err, repro.ErrQueueEmpty) {
		t.Fatalf("empty dequeue = %v", err)
	}
}

func TestPublicAbortableContracts(t *testing.T) {
	s := repro.NewAbortableStack[int](1, 1)
	if err := s.TryPush(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.TryPush(0, 2); !errors.Is(err, repro.ErrStackFull) {
		t.Fatalf("push on full = %v", err)
	}
	q := repro.NewAbortableQueue[int](1)
	if _, err := q.TryDequeue(); !errors.Is(err, repro.ErrQueueEmpty) {
		t.Fatalf("dequeue on empty = %v", err)
	}
}

func TestPublicGuardComposition(t *testing.T) {
	// Build a contention-sensitive counter from scratch with Guard/Do:
	// the README's "any abortable object" claim.
	g := repro.NewGuard(repro.NewStarvationFreeLock(repro.NewTASLock(), 4))
	reg := repro.NewTreiberStack[int](4)
	for pid := 0; pid < 4; pid++ {
		repro.Do(g, pid, func() (int, bool) {
			err := reg.TryPush(pid, pid)
			return 0, err == nil
		})
	}
	if got := reg.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
}

// countlessLock is a PidLock that does not report its process count.
type countlessLock struct{ sync.Mutex }

func (l *countlessLock) Acquire(int) { l.Lock() }
func (l *countlessLock) Release(int) { l.Unlock() }

// TestNewGuardNeedsProcessCount pins that NewGuard sizes the guard's
// per-pid counter slots from the lock's N() and refuses a lock that
// reports none, instead of letting every pid share one slot.
func TestNewGuardNeedsProcessCount(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "process count") {
			t.Fatalf("NewGuard over a lock without N() = panic %v, want one naming the process count", r)
		}
	}()
	repro.NewGuard(&countlessLock{})
}

func TestPublicNonBlocking(t *testing.T) {
	s := repro.NewNonBlockingStack[int](4, 1)
	if err := s.Push(0, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Pop(0); err != nil || v != 7 {
		t.Fatalf("Pop = (%d, %v)", v, err)
	}
	q := repro.NewNonBlockingQueue[int](4)
	if err := q.Enqueue(9); err != nil {
		t.Fatal(err)
	}
	if v, err := q.Dequeue(); err != nil || v != 9 {
		t.Fatalf("Dequeue = (%d, %v)", v, err)
	}
}

func TestPublicDeque(t *testing.T) {
	d := repro.NewDeque(8, 2)
	if err := d.PushRight(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.PushLeft(1, 2); err != nil {
		t.Fatal(err)
	}
	if v, err := d.PopRight(0); err != nil || v != 1 {
		t.Fatalf("PopRight = (%d, %v)", v, err)
	}
	if v, err := d.PopLeft(1); err != nil || v != 2 {
		t.Fatalf("PopLeft = (%d, %v)", v, err)
	}
	if _, err := d.PopLeft(0); !errors.Is(err, repro.ErrDequeEmpty) {
		t.Fatalf("empty pop = %v", err)
	}
	w := repro.NewAbortableDeque(4)
	if err := w.TryPushRight(9); err != nil {
		t.Fatal(err)
	}
	nb := repro.NewNonBlockingDeque(4)
	if err := nb.PushLeft(3); err != nil {
		t.Fatal(err)
	}
}

func TestProgressOrder(t *testing.T) {
	if !repro.StarvationFree.Implies(repro.NonBlocking) ||
		!repro.NonBlocking.Implies(repro.ObstructionFree) ||
		!repro.WaitFree.Implies(repro.StarvationFree) {
		t.Fatal("progress hierarchy broken")
	}
}

func TestTicketLockPublic(t *testing.T) {
	lk := repro.NewTicketLock()
	done := make(chan struct{})
	lk.Lock()
	go func() {
		lk.Lock()
		lk.Unlock()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second Lock acquired while held")
	default:
	}
	lk.Unlock()
	<-done
}

func TestPublicPooledStackAndQueue(t *testing.T) {
	const procs = 4
	s := repro.NewTreiberStack[uint64](procs)
	q := repro.NewPooledQueue[uint64](procs)
	for i := uint64(0); i < 100; i++ {
		if err := s.Push(int(i)%procs, i); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(int(i)%procs, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if v, err := s.Pop(0); err != nil || v != 99-i {
			t.Fatalf("stack pop %d = (%d, %v)", i, v, err)
		}
		if v, err := q.Dequeue(0); err != nil || v != i {
			t.Fatalf("queue dequeue %d = (%d, %v)", i, v, err)
		}
	}
	if _, err := s.Pop(0); !errors.Is(err, repro.ErrStackEmpty) {
		t.Fatalf("pop on empty = %v", err)
	}
	if _, err := q.Dequeue(0); !errors.Is(err, repro.ErrQueueEmpty) {
		t.Fatalf("dequeue on empty = %v", err)
	}
	// The facade exposes the recycling counters: a push/enqueue after
	// the drain must reuse a retired node, not grow the arena.
	if err := s.Push(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(0, 7); err != nil {
		t.Fatal(err)
	}
	var st repro.PoolStats = s.PoolStats()
	if st.Reuses == 0 || q.PoolStats().Reuses == 0 {
		t.Fatalf("no recycling observed: stack %+v, queue %+v", st, q.PoolStats())
	}
	if st.Drops != 0 {
		t.Fatalf("stack pool dropped handles: %+v", st)
	}
}

// TestPooledBackendsAtString round-trips the pooled Treiber stack and
// Michael-Scott queue at a pointer-carrying T through the options
// constructors: the pooled tier is generic.
func TestPooledBackendsAtString(t *testing.T) {
	s, err := repro.NewStackBackend[string]("treiber", repro.WithPooled(), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := repro.NewQueueBackend[string]("michael-scott-pooled", repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	in := []string{"a", "bb", "ccc"}
	for i, v := range in {
		if err := s.Push(i%2, v); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(i%2, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in {
		if v, err := s.Pop(1); err != nil || v != in[len(in)-1-i] {
			t.Fatalf("stack pop %d = (%q, %v)", i, v, err)
		}
		if v, err := q.Dequeue(0); err != nil || v != in[i] {
			t.Fatalf("queue dequeue %d = (%q, %v)", i, v, err)
		}
	}
	if _, err := s.Pop(0); !errors.Is(err, repro.ErrStackEmpty) {
		t.Fatalf("pop on empty = %v", err)
	}
	if _, err := q.Dequeue(1); !errors.Is(err, repro.ErrQueueEmpty) {
		t.Fatalf("dequeue on empty = %v", err)
	}
	if _, ok := repro.Unwrap(s).(*repro.TreiberStack[string]); !ok {
		t.Fatalf("stack backend = %T", repro.Unwrap(s))
	}
	if _, ok := repro.Unwrap(q).(*repro.PooledQueue[string]); !ok {
		t.Fatalf("queue backend = %T", repro.Unwrap(q))
	}
}

func TestPublicCombiningPooled(t *testing.T) {
	const procs = 2
	s := repro.NewCombiningPooledStack(8, procs)
	q := repro.NewCombiningQueue[uint64](8, procs) // the ring queue is allocation-free at any T
	for i := uint64(1); i <= 5; i++ {
		if err := s.Push(0, i); err != nil {
			t.Fatal(err)
		}
		if err := q.Enqueue(1, i); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := s.Pop(1); err != nil || v != 5 {
		t.Fatalf("combining pooled stack pop = (%d, %v)", v, err)
	}
	if v, err := q.Dequeue(0); err != nil || v != 1 {
		t.Fatalf("combining pooled queue dequeue = (%d, %v)", v, err)
	}
}

func TestPublicSetTier(t *testing.T) {
	const procs = 4
	builders := map[string]interface {
		Add(pid int, k uint64) bool
		Remove(pid int, k uint64) bool
		Contains(pid int, k uint64) bool
	}{
		"sensitive": repro.NewSet(procs),
		"lock-free": repro.NewLockFreeSet(procs),
		"combining": repro.NewCombiningSet(procs),
		"retrying":  repro.NewNonBlockingSet(),
		"hash":      repro.NewHashSet(procs),
	}
	for name, s := range builders {
		if !s.Add(0, 7) || s.Add(1, 7) {
			t.Fatalf("%s: duplicate Add answers wrong", name)
		}
		if !s.Contains(2, 7) || s.Contains(2, 8) {
			t.Fatalf("%s: Contains answers wrong", name)
		}
		if !s.Remove(3, 7) || s.Remove(3, 7) {
			t.Fatalf("%s: Remove answers wrong", name)
		}
	}
}

func TestPublicHashSet(t *testing.T) {
	const procs = 2
	s := repro.NewHashSet(procs)
	// Wide enough to force table doublings through the public surface.
	for k := uint64(0); k < 300; k++ {
		if !s.Add(int(k)%procs, k) {
			t.Fatalf("Add(%d) = false", k)
		}
	}
	if s.Size() != 300 {
		t.Fatalf("Size() = %d, want 300", s.Size())
	}
	if s.Resizes() == 0 {
		t.Fatal("300 keys never doubled the table")
	}
	for k := uint64(0); k < 300; k++ {
		if !s.Contains(0, k) {
			t.Fatalf("key %d lost across resizes", k)
		}
	}
}

func TestPublicAbortableSet(t *testing.T) {
	s := repro.NewAbortableSet()
	if added, err := s.TryAdd(5); err != nil || !added {
		t.Fatalf("solo TryAdd = (%v, %v)", added, err)
	}
	if added, err := s.TryAdd(5); err != nil || added {
		t.Fatalf("duplicate TryAdd = (%v, %v), want (false, nil)", added, err)
	}
	if !s.Contains(5) {
		t.Fatal("Contains(5) = false")
	}
	if removed, err := s.TryRemove(5); err != nil || !removed {
		t.Fatalf("solo TryRemove = (%v, %v)", removed, err)
	}
	if errors.Is(repro.ErrSetAborted, repro.ErrStackAborted) {
		t.Fatal("set and stack abort sentinels must be distinct")
	}
}

// --- catalog & options API ---------------------------------------------

// TestCatalogShape pins the catalog's structural invariants: unique
// kind-prefixed names, complete metadata, exactly the right
// constructor closure per kind, and E20 (the catalog-wide dispatch
// experiment) covering every entry.
func TestCatalogShape(t *testing.T) {
	seen := map[string]bool{}
	kinds := map[string]int{}
	for _, b := range repro.Catalog() {
		if seen[b.Name] {
			t.Fatalf("duplicate catalog name %s", b.Name)
		}
		seen[b.Name] = true
		kinds[b.Kind]++
		if !strings.HasPrefix(b.Name, b.Kind+"/") {
			t.Errorf("%s: name not prefixed by kind %q", b.Name, b.Kind)
		}
		if b.Constructor == "" || b.Object == "" || b.Tier == "" ||
			b.Progress == "" || b.Domain == "" || b.Allocation == "" {
			t.Errorf("%s: incomplete metadata: %+v", b.Name, b)
		}
		ops := repro.Drive(b)
		if want := map[string]int{repro.KindStack: 2, repro.KindQueue: 2, repro.KindDeque: 4, repro.KindSet: 3}[b.Kind]; ops.N != want {
			t.Errorf("%s: Drive has %d op codes, want %d for a %s", b.Name, ops.N, want, b.Kind)
		}
		if ops.Instance == nil {
			t.Errorf("%s: Drive left Instance nil", b.Name)
		}
		if b.Direct == nil {
			t.Errorf("%s: no direct-call builder", b.Name)
		}
		hasE20 := false
		for _, e := range b.Experiments {
			if e == "E20" {
				hasE20 = true
			}
		}
		if !hasE20 {
			t.Errorf("%s: not covered by E20", b.Name)
		}
	}
	for _, kind := range []string{repro.KindStack, repro.KindQueue, repro.KindDeque, repro.KindSet} {
		if kinds[kind] == 0 {
			t.Errorf("catalog has no %s entries", kind)
		}
	}
}

// TestCatalogDriveSolo pushes one value through every catalog entry's
// interface and direct drivers: the uniform op encoding must
// round-trip on both paths.
func TestCatalogDriveSolo(t *testing.T) {
	opts := []repro.Option{repro.WithCapacity(8), repro.WithProcs(1)}
	for _, b := range repro.Catalog() {
		for path, ops := range map[string]repro.Ops{
			"interface": repro.Drive(b, opts...),
			"direct":    b.Direct(opts...),
		} {
			if _, err := ops.Do(0, 0, 7); err != nil {
				t.Fatalf("%s/%s: op 0 (insert 7): %v", b.Name, path, err)
			}
			popOp := 1 // stack/queue remove
			switch b.Kind {
			case repro.KindDeque:
				popOp = 2 // popL pairs with op 0 = pushL
			case repro.KindSet:
				popOp = 2 // contains
			}
			got, err := ops.Do(0, popOp, 7)
			want := uint64(7)
			if b.Kind == repro.KindSet {
				want = 1 // membership answer
			}
			if err != nil || got != want {
				t.Fatalf("%s/%s: op %d = (%d, %v), want (%d, nil)", b.Name, path, popOp, got, err, want)
			}
		}
	}
}

// TestLegacyAndCatalogPathsAgree drives a legacy concrete-type
// constructor and its options-API equivalent side by side through the
// same op sequence, per object kind.
func TestLegacyAndCatalogPathsAgree(t *testing.T) {
	// Stack, generic domain: NewStack vs NewStackBackend("sensitive").
	legacy := repro.NewStack[string](4, 2)
	viaAPI, err := repro.NewStackBackend[string]("sensitive", repro.WithCapacity(4), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"a", "b", "c"} {
		if e1, e2 := legacy.Push(0, v), viaAPI.Push(0, v); e1 != nil || e2 != nil {
			t.Fatalf("push %d: legacy %v, catalog %v", i, e1, e2)
		}
	}
	for i := 0; i < 4; i++ {
		v1, e1 := legacy.Pop(1)
		v2, e2 := viaAPI.Pop(1)
		if v1 != v2 || !errors.Is(e2, e1) && (e1 != nil || e2 != nil) {
			t.Fatalf("pop %d: legacy (%q, %v), catalog (%q, %v)", i, v1, e1, v2, e2)
		}
	}

	// Queue, pooled generic domain: NewPooledQueue vs the catalog name.
	lq := repro.NewPooledQueue[string](2)
	cq, err := repro.NewQueueBackend[string]("michael-scott-pooled", repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c"} {
		if e1, e2 := lq.Enqueue(0, v), cq.Enqueue(0, v); e1 != nil || e2 != nil {
			t.Fatalf("enqueue %q: legacy %v, catalog %v", v, e1, e2)
		}
	}
	for i := 0; i < 4; i++ {
		v1, e1 := lq.Dequeue(1)
		v2, e2 := cq.Dequeue(1)
		if v1 != v2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("dequeue %d: legacy (%q, %v), catalog (%q, %v)", i, v1, e1, v2, e2)
		}
	}

	// Deque: NewDeque vs NewDequeBackend("sensitive").
	ld := repro.NewDeque(4, 2)
	cd, err := repro.NewDequeBackend("sensitive", repro.WithCapacity(4), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if e1, e2 := ld.PushRight(0, 9), cd.PushRight(0, 9); e1 != nil || e2 != nil {
		t.Fatalf("deque push: legacy %v, catalog %v", e1, e2)
	}
	v1, e1 := ld.PopLeft(1)
	v2, e2 := cd.PopLeft(1)
	if v1 != v2 || e1 != nil || e2 != nil {
		t.Fatalf("deque pop: legacy (%d, %v), catalog (%d, %v)", v1, e1, v2, e2)
	}

	// Set: NewLockFreeSet vs NewSetBackend("harris").
	ls := repro.NewLockFreeSet(2)
	cs, err := repro.NewSetBackend("harris", repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 5, 9} {
		got, cerr := cs.Add(0, k)
		if want := ls.Add(0, k); got != want || cerr != nil {
			t.Fatalf("set add %d: legacy %v, catalog (%v, %v)", k, want, got, cerr)
		}
	}
}

// TestBackendConstructorErrors pins the failure modes: unknown names,
// domain mismatches, and pooled redirection without a sibling.
func TestBackendConstructorErrors(t *testing.T) {
	if _, err := repro.NewStackBackend[int]("no-such-backend"); err == nil {
		t.Fatal("unknown backend accepted")
	} else if !strings.Contains(err.Error(), "stack/treiber") {
		t.Fatalf("unknown-backend error does not list the catalog: %v", err)
	}
	if _, err := repro.NewStackBackend[string]("combining-pooled"); err == nil {
		t.Fatal("uint64-only backend instantiated at string")
	}
	if _, err := repro.NewStackBackend[uint64]("elimination", repro.WithPooled()); err == nil {
		t.Fatal("WithPooled accepted on a backend with no pooled sibling")
	}
	// Already-pooled names pass WithPooled through unchanged.
	if _, err := repro.NewQueueBackend[uint64]("michael-scott-pooled", repro.WithPooled()); err != nil {
		t.Fatalf("WithPooled on an already-pooled backend: %v", err)
	}
}

// TestUnwrapExtensions reaches a concrete-type extension through the
// adapter layer: the pooled stack's recycling counters.
func TestUnwrapExtensions(t *testing.T) {
	s, err := repro.NewStackBackend[uint64]("treiber", repro.WithProcs(1), repro.WithPooled())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pop(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(0, 2); err != nil {
		t.Fatal(err)
	}
	ps, ok := repro.Unwrap(s).(interface{ PoolStats() repro.PoolStats })
	if !ok {
		t.Fatal("Unwrap did not expose PoolStats on the pooled stack")
	}
	if ps.PoolStats().Reuses == 0 {
		t.Fatal("no recycling observed through the catalog surface")
	}
}

// retryPolicied mirrors the seam the catalog forwards WithRetryPolicy
// through; every Figure 2 backend also reports the policy back.
type retryPolicied interface {
	RetryPolicy() (core.Manager, int)
}

// TestWithRetryPolicyReachesEveryFigure2Backend builds the four
// non-blocking backends through their public constructors with
// WithRetryPolicy and reads the policy back through Unwrap: the option
// must survive the adapter layers on every kind.
func TestWithRetryPolicyReachesEveryFigure2Backend(t *testing.T) {
	opt := repro.WithRetryPolicy("adaptive", 4)
	check := func(name string, x any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rp, ok := repro.Unwrap(x).(retryPolicied)
		if !ok {
			t.Fatalf("%s: Unwrap does not expose the retry policy", name)
		}
		m, budget := rp.RetryPolicy()
		if budget != 4 {
			t.Fatalf("%s: budget = %d, want 4", name, budget)
		}
		if _, ok := m.(*cmanager.Adaptive); !ok {
			t.Fatalf("%s: manager = %T, want *cmanager.Adaptive", name, m)
		}
	}
	s, err := repro.NewStackBackend[uint64]("non-blocking", opt)
	check("stack/non-blocking", s, err)
	q, err := repro.NewQueueBackend[uint64]("non-blocking", opt)
	check("queue/non-blocking", q, err)
	d, err := repro.NewDequeBackend("non-blocking", opt)
	check("deque/non-blocking", d, err)
	st, err := repro.NewSetBackend("non-blocking", opt)
	check("set/non-blocking", st, err)
}

// TestWithRetryPolicySoloNeverSheds pins the E2 corollary at the API
// surface: a solo weak attempt always succeeds, so even the tightest
// budget (1 attempt, the obstruction-free rung) never degrades an
// uncontended operation.
func TestWithRetryPolicySoloNeverSheds(t *testing.T) {
	opt := repro.WithRetryPolicy("none", 1)
	s, err := repro.NewStackBackend[uint64]("non-blocking", opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(0, 7); err != nil {
		t.Fatalf("solo Push under budget 1: %v", err)
	}
	if v, err := s.Pop(0); err != nil || v != 7 {
		t.Fatalf("solo Pop under budget 1 = (%d, %v)", v, err)
	}
	st, err := repro.NewSetBackend("non-blocking", opt)
	if err != nil {
		t.Fatal(err)
	}
	if added, err := st.Add(0, 5); err != nil || !added {
		t.Fatalf("solo Add under budget 1 = (%v, %v)", added, err)
	}
	if removed, err := st.Remove(0, 5); err != nil || !removed {
		t.Fatalf("solo Remove under budget 1 = (%v, %v)", removed, err)
	}
}

// alwaysAbortedStack is a weak stack under livelock-grade interference:
// every attempt aborts.
type alwaysAbortedStack struct{ attempts int }

func (a *alwaysAbortedStack) TryPush(int, uint64) error { a.attempts++; return repro.ErrStackAborted }
func (a *alwaysAbortedStack) TryPop(int) (uint64, error) {
	a.attempts++
	return 0, repro.ErrStackAborted
}

// alwaysAbortedSet is its set sibling.
type alwaysAbortedSet struct{}

func (alwaysAbortedSet) TryAdd(uint64) (bool, error)      { return false, repro.ErrSetAborted }
func (alwaysAbortedSet) TryRemove(uint64) (bool, error)   { return false, repro.ErrSetAborted }
func (alwaysAbortedSet) TryContains(uint64) (bool, error) { return false, nil }

// TestRetryBudgetDegradesGracefully drives the Figure 2 construction
// over weak objects whose every attempt aborts — the deterministic
// stand-in for unbounded interference. Container operations must
// surface repro.ErrExhausted (the public alias of core.ErrExhausted)
// after exactly the budgeted attempts; set updates shed and report
// false, with no effect either way.
func TestRetryBudgetDegradesGracefully(t *testing.T) {
	weak := &alwaysAbortedStack{}
	nb := stack.NewNonBlockingFrom[uint64](weak, nil)
	nb.SetRetryPolicy(nil, 3)
	if err := nb.Push(0, 9); !errors.Is(err, repro.ErrExhausted) {
		t.Fatalf("exhausted Push error = %v, want repro.ErrExhausted", err)
	}
	if weak.attempts != 3 {
		t.Fatalf("Push made %d attempts, want the budget of 3", weak.attempts)
	}
	if _, err := nb.Pop(0); !errors.Is(err, repro.ErrExhausted) {
		t.Fatalf("exhausted Pop error = %v, want repro.ErrExhausted", err)
	}
	// The E3/E7 counted variants run the same budgeted loop.
	weak.attempts = 0
	if err, aborts := nb.PushCounted(0, 9); !errors.Is(err, repro.ErrExhausted) || aborts != 3 || weak.attempts != 3 {
		t.Fatalf("PushCounted = (%v, %d aborts) after %d attempts, want (ErrExhausted, 3) after 3", err, aborts, weak.attempts)
	}
	weak.attempts = 0
	if _, err, aborts := nb.PopCounted(0); !errors.Is(err, repro.ErrExhausted) || aborts != 3 || weak.attempts != 3 {
		t.Fatalf("PopCounted = (%v, %d aborts) after %d attempts, want (ErrExhausted, 3) after 3", err, aborts, weak.attempts)
	}

	ns := set.NewNonBlockingFrom(alwaysAbortedSet{}, nil)
	ns.SetRetryPolicy(nil, 2)
	if ns.Add(0, 5) {
		t.Fatal("exhausted Add reported true (claims an effect it did not have)")
	}
	if ns.Remove(0, 5) {
		t.Fatal("exhausted Remove reported true")
	}
}

// TestWithRetryPolicyConservesUnderContention hammers the budgeted
// non-blocking stack from several goroutines: however many operations
// shed with ErrExhausted, a shed push must leave nothing behind — the
// drain must recover exactly the successful pushes.
func TestWithRetryPolicyConservesUnderContention(t *testing.T) {
	const procs, per = 4, 1000 // capacity procs·per must stay under memory.MaxIndex
	s, err := repro.NewStackBackend[uint64]("non-blocking",
		repro.WithCapacity(procs*per), repro.WithRetryPolicy("none", 1))
	if err != nil {
		t.Fatal(err)
	}
	var pushed, shed sync.Map
	var wg sync.WaitGroup
	counts := make([]int, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(pid*per + i)
				switch err := s.Push(pid, v); {
				case err == nil:
					counts[pid]++
					pushed.Store(v, true)
				case errors.Is(err, repro.ErrExhausted):
					shed.Store(v, true)
				default:
					t.Errorf("Push(%d) = %v", v, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	ok := 0
	for _, c := range counts {
		ok += c
	}
	drained := 0
	for {
		v, err := s.Pop(0)
		if errors.Is(err, repro.ErrStackEmpty) {
			break
		}
		if err != nil {
			t.Fatalf("drain Pop: %v", err)
		}
		if _, was := pushed.Load(v); !was {
			t.Fatalf("drained %d, which never reported a successful push", v)
		}
		drained++
	}
	if drained != ok {
		t.Fatalf("drained %d values, want exactly the %d successful pushes (%d shed)",
			drained, ok, procs*per-ok)
	}
}

// readmeRow matches one body row of the README backend-catalog table:
// | `name` | `constructor` | object | progress | allocation | robustness | experiments |
var readmeRow = regexp.MustCompile("^\\| `([^`]+)` \\| `([^`]+)` \\| ([^|]+) \\| ([^|]+) \\| ([^|]+) \\| ([^|]+) \\| ([^|]+) \\|$")

// TestCatalogMatchesReadme keeps the README backend-catalog table and
// repro.Catalog() in lockstep, both directions: every catalog entry
// must appear in the table with exactly the catalog's constructor,
// object, progress, allocation, and experiment list — and every table
// row must name a catalog entry.
func TestCatalogMatchesReadme(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	type row struct{ constructor, object, progress, allocation, robustness, experiments string }
	documented := map[string]row{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := readmeRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		documented[m[1]] = row{m[2], strings.TrimSpace(m[3]), strings.TrimSpace(m[4]),
			strings.TrimSpace(m[5]), strings.TrimSpace(m[6]), strings.TrimSpace(m[7])}
	}
	if len(documented) == 0 {
		t.Fatal("no backend-catalog rows found in README.md (pattern drift?)")
	}
	inCatalog := map[string]bool{}
	for _, b := range repro.Catalog() {
		inCatalog[b.Name] = true
		doc, ok := documented[b.Name]
		if !ok {
			t.Errorf("catalog backend %s has no README table row", b.Name)
			continue
		}
		want := row{b.Constructor, b.Object, b.Progress, b.Allocation, b.Robustness, strings.Join(b.Experiments, " ")}
		if doc != want {
			t.Errorf("README row for %s drifted:\n  readme:  %+v\n  catalog: %+v", b.Name, doc, want)
		}
	}
	for name := range documented {
		if !inCatalog[name] {
			t.Errorf("README documents backend %s but repro.Catalog() does not export it", name)
		}
	}
}

// TestUnwrapThroughAdaptive pins the adapter contract the adaptive
// tier adds: Unwrap must reach the CURRENT rung's concrete backend, so
// optional extensions (Snapshot, combining Stats) keep working after a
// morph — stale Unwrap results are the caller's responsibility.
func TestUnwrapThroughAdaptive(t *testing.T) {
	s, err := repro.NewStackBackend[uint64]("sensitive", repro.WithAdaptive(),
		repro.WithCapacity(16), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	as, ok := s.(*repro.AdaptiveStack[uint64])
	if !ok {
		t.Fatalf("WithAdaptive did not redirect: got %T", s)
	}
	if _, ok := repro.Unwrap(s).(*repro.Stack[uint64]); !ok {
		t.Fatalf("Unwrap before morph = %T, want *repro.Stack", repro.Unwrap(s))
	}
	if err := s.Push(0, 9); err != nil {
		t.Fatal(err)
	}
	if !as.MorphTo(0, 1) {
		t.Fatal("MorphTo(combining) failed")
	}
	inner, ok := repro.Unwrap(s).(*repro.CombiningStack[uint64])
	if !ok {
		t.Fatalf("Unwrap after morph = %T, want *repro.CombiningStack", repro.Unwrap(s))
	}
	// The extension surface of the current rung works post-morph.
	if got := inner.Snapshot(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("post-morph Snapshot through Unwrap = %v", got)
	}

	st, err := repro.NewSetBackend("sensitive", repro.WithAdaptive(), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(0, 3); err != nil {
		t.Fatal(err)
	}
	aset, ok := repro.Unwrap(st).(*repro.AdaptiveSet)
	if ok {
		t.Fatalf("full Unwrap stopped at the adaptive wrapper: %T", aset)
	}
	if _, ok := repro.Unwrap(st).(*repro.AbortableSet); !ok {
		t.Fatalf("set Unwrap on cow rung = %T", repro.Unwrap(st))
	}
	var hop any = st
	for {
		if a, ok2 := hop.(*repro.AdaptiveSet); ok2 {
			a.MorphTo(0, 2)
			break
		}
		u, ok2 := hop.(repro.Unwrapper)
		if !ok2 {
			t.Fatal("no adaptive layer found under the set adapter")
		}
		hop = u.Unwrap()
	}
	hs, ok := repro.Unwrap(st).(*repro.HashSet)
	if !ok {
		t.Fatalf("set Unwrap after morph = %T, want *repro.HashSet", repro.Unwrap(st))
	}
	if got := hs.Snapshot(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("post-morph set Snapshot through Unwrap = %v", got)
	}
}

// TestUnwrapForwardingMultiHop walks every multi-hop adapter chain the
// options constructors can assemble — WithPooled and the adaptive
// wrappers — one Unwrap hop at a time: each layer must
// implement Unwrapper (or be the concrete backend), with no chain
// silently truncated.
func TestUnwrapForwardingMultiHop(t *testing.T) {
	build := []struct {
		name string
		x    func() (any, error)
		want string
	}{
		{"stack treiber pooled", func() (any, error) {
			return repro.NewStackBackend[uint64]("treiber", repro.WithPooled(), repro.WithProcs(2))
		}, "*stack.Treiber[uint64]"},
		{"stack combining pooled", func() (any, error) {
			return repro.NewStackBackend[uint64]("combining", repro.WithPooled(), repro.WithProcs(2))
		}, "*stack.Combining[uint64]"},
		{"queue combining pooled", func() (any, error) {
			return repro.NewQueueBackend[uint64]("combining", repro.WithPooled(), repro.WithProcs(2))
		}, "*queue.Combining[uint64]"},
		{"stack adaptive", func() (any, error) {
			return repro.NewStackBackend[uint64]("adaptive", repro.WithProcs(2))
		}, "*stack.Sensitive[uint64]"},
		{"queue adaptive", func() (any, error) {
			return repro.NewQueueBackend[uint64]("sensitive", repro.WithAdaptive(), repro.WithProcs(2))
		}, "*queue.Sensitive[uint64]"},
		{"set adaptive", func() (any, error) {
			return repro.NewSetBackend("adaptive", repro.WithProcs(2))
		}, "*set.Abortable"},
	}
	for _, tc := range build {
		x, err := tc.x()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Every hop must make progress and terminate at the concrete type.
		hops := 0
		for cur := x; ; hops++ {
			if hops > 8 {
				t.Fatalf("%s: unwrap chain does not terminate", tc.name)
			}
			u, ok := cur.(repro.Unwrapper)
			if !ok {
				break
			}
			next := u.Unwrap()
			if next == cur {
				t.Fatalf("%s: Unwrap hop returned itself", tc.name)
			}
			cur = next
		}
		got := typeName(repro.Unwrap(x))
		if got != tc.want {
			t.Errorf("%s: Unwrap = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func typeName(x any) string { return fmt.Sprintf("%T", x) }

// TestAdaptiveStatsOf checks the layer-aware stats walk and that
// WithThresholds reaches the constructor: forcing thresholds must
// yield migrations through the plain catalog surface.
func TestAdaptiveStatsOf(t *testing.T) {
	q, err := repro.NewQueueBackend[uint64]("adaptive",
		repro.WithThresholds(repro.ForcingThresholds()), repro.WithShards(1),
		repro.WithCapacity(32), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if err := q.Enqueue(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Dequeue(0); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := repro.AdaptiveStatsOf(q)
	if !ok {
		t.Fatal("AdaptiveStatsOf found no adaptive layer")
	}
	if st.Migrations == 0 {
		t.Fatalf("no migrations under forcing thresholds: %+v", st)
	}
	if _, ok := repro.AdaptiveStatsOf(repro.NewStack[int](4, 1)); ok {
		t.Fatal("AdaptiveStatsOf reported an adaptive layer on a fixed backend")
	}
}

// TestAdaptiveSetRetryPolicyIsLayerAware pins the applyRetryPolicy
// fix: the adaptive set's own cow-rung retry loop must receive
// WithRetryPolicy instead of the option being forwarded past it to
// the rung underneath.
func TestAdaptiveSetRetryPolicyIsLayerAware(t *testing.T) {
	st, err := repro.NewSetBackend("adaptive", repro.WithRetryPolicy("backoff", 5), repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	var hop any = st
	for {
		if a, ok := hop.(*repro.AdaptiveSet); ok {
			m, budget := a.RetryPolicy()
			if m == nil || budget != 5 {
				t.Fatalf("adaptive set retry policy = (%v, %d), want (backoff, 5)", m, budget)
			}
			return
		}
		u, ok := hop.(repro.Unwrapper)
		if !ok {
			t.Fatal("no adaptive layer under the set adapter")
		}
		hop = u.Unwrap()
	}
}
