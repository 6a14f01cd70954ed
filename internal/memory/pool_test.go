package memory

import (
	"errors"
	"sync"
	"testing"
)

func TestTaggedValCodec(t *testing.T) {
	cases := []struct {
		h   Handle
		tag uint32
	}{
		{NilHandle, 0},
		{1, 0},
		{42, 7},
		// The top handle bit is the TaggedMark deletion flag, so the
		// largest addressable handle is 2^31-1.
		{1<<31 - 1, 1<<32 - 1},
	}
	for _, c := range cases {
		v := PackTagged(c.h, c.tag)
		if v.Handle() != c.h || v.Tag() != c.tag {
			t.Fatalf("PackTagged(%d,%d) round-trips to (%d,%d)", c.h, c.tag, v.Handle(), v.Tag())
		}
	}
	v := PackTagged(9, 5)
	n := v.Next(11)
	if n.Handle() != 11 || n.Tag() != 6 {
		t.Fatalf("Next = (%d,%d), want (11,6)", n.Handle(), n.Tag())
	}
	// Tag wraparound is modulo 2^32, handle untouched.
	w := PackTagged(3, 1<<32-1).Next(3)
	if w.Handle() != 3 || w.Tag() != 0 {
		t.Fatalf("wrapping Next = (%d,%d), want (3,0)", w.Handle(), w.Tag())
	}
}

func TestTaggedMark(t *testing.T) {
	v := PackTagged(42, 7)
	if v.Marked() {
		t.Fatal("fresh word is marked")
	}
	m := v.WithMark()
	if !m.Marked() {
		t.Fatal("WithMark did not mark")
	}
	// The mark changes the word (a CAS expecting the unmarked word
	// must fail) but not its handle or tag decode.
	if m == v {
		t.Fatal("marked word equals unmarked word")
	}
	if m.Handle() != 42 || m.Tag() != 7 {
		t.Fatalf("marked word decodes to (%d,%d), want (42,7)", m.Handle(), m.Tag())
	}
	if m.WithoutMark() != v {
		t.Fatal("WithoutMark does not restore the original word")
	}
	// Next always returns an unmarked word with an advanced tag, which
	// is what keeps recycled-node words strictly newer than any stale
	// pre-mark word.
	n := m.Next(42)
	if n.Marked() || n.Tag() != 8 {
		t.Fatalf("Next over a marked word = (marked=%v, tag=%d), want (false, 8)", n.Marked(), n.Tag())
	}
}

func TestPoolGetPutRecycles(t *testing.T) {
	p := NewPool[uint64](2, nil)
	h1 := p.Get(0)
	h2 := p.Get(0)
	if h1 == NilHandle || h2 == NilHandle || h1 == h2 {
		t.Fatalf("fresh handles: %d, %d", h1, h2)
	}
	*p.At(h1) = 111
	p.Put(0, h1)
	h3 := p.Get(0) // LIFO: the hottest handle first
	if h3 != h1 {
		t.Fatalf("Get after Put = %d, want recycled %d", h3, h1)
	}
	if *p.At(h3) != 111 {
		t.Fatal("recycled record was zeroed; per-node state must survive recycling")
	}
	st := p.Stats()
	if st.Allocs != 2 || st.Reuses != 1 {
		t.Fatalf("stats = %+v, want 2 allocs, 1 reuse", st)
	}
}

func TestPoolInitRunsOncePerArenaRecord(t *testing.T) {
	inits := 0
	p := NewPool[uint64](1, func(r *uint64) { inits++; *r = 7 })
	h := p.Get(0)
	if inits != 1 || *p.At(h) != 7 {
		t.Fatalf("init ran %d times, record = %d", inits, *p.At(h))
	}
	p.Put(0, h)
	if got := p.Get(0); got != h || inits != 1 {
		t.Fatalf("recycled Get reran init (%d times)", inits)
	}
}

func TestPoolSpillAndRefill(t *testing.T) {
	p := NewPool[uint64](2, nil)
	// Overfill pid 0's local list to force a spill...
	var hs []Handle
	for i := 0; i < poolLocalCap+1; i++ {
		hs = append(hs, p.Get(0))
	}
	for _, h := range hs {
		p.Put(0, h)
	}
	st := p.Stats()
	if st.Spills == 0 {
		t.Fatalf("no spill after %d puts: %+v", len(hs), st)
	}
	// ...then drain through pid 1, which must refill from the overflow
	// rather than growing the arena.
	arena := p.ArenaSize()
	for i := 0; i < poolLocalCap/2; i++ {
		p.Get(1)
	}
	st = p.Stats()
	if st.Refills == 0 {
		t.Fatalf("pid 1 never refilled from overflow: %+v", st)
	}
	if p.ArenaSize() != arena {
		t.Fatalf("arena grew from %d to %d with free records available", arena, p.ArenaSize())
	}
	if st.Drops != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
}

func TestPoolArenaGrowthAcrossBlocks(t *testing.T) {
	p := NewPool[uint64](1, nil)
	seen := map[Handle]bool{}
	n := 3*poolBlockSize + 5
	for i := 0; i < n; i++ {
		h := p.Get(0)
		if seen[h] {
			t.Fatalf("handle %d issued twice", h)
		}
		seen[h] = true
		*p.At(h) = uint64(i)
	}
	for h := range seen {
		got := *p.At(h)
		if got >= uint64(n) {
			t.Fatalf("record %d corrupted: %d", h, got)
		}
	}
	if p.ArenaSize() != n {
		t.Fatalf("ArenaSize = %d, want %d", p.ArenaSize(), n)
	}
}

func TestPoolConcurrentDistinctHandles(t *testing.T) {
	const procs, rounds = 4, 2000
	p := NewPool[uint64](procs, nil)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			held := make([]Handle, 0, 8)
			for i := 0; i < rounds; i++ {
				h := p.Get(pid)
				*p.At(h) = uint64(pid) // owner writes while held
				held = append(held, h)
				if len(held) == 8 {
					for _, h := range held {
						if *p.At(h) != uint64(pid) {
							t.Errorf("record %d stolen while held", h)
							return
						}
						p.Put(pid, h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				p.Put(pid, h)
			}
		}(pid)
	}
	wg.Wait()
	st := p.Stats()
	if st.Reuses == 0 {
		t.Fatalf("no recycling under churn: %+v", st)
	}
}

func TestPoolTryGetExhaustionIsTyped(t *testing.T) {
	p := NewPool[uint64](1, nil)
	p.limit = 3 // shrink the handle horizon so exhaustion is reachable
	var hs []Handle
	for i := 0; i < 3; i++ {
		h, err := p.TryGet(0)
		if err != nil || h == NilHandle {
			t.Fatalf("TryGet #%d = (%d, %v) before the horizon", i, h, err)
		}
		hs = append(hs, h)
	}
	h, err := p.TryGet(0)
	if !errors.Is(err, ErrArenaExhausted) || h != NilHandle {
		t.Fatalf("TryGet past the horizon = (%d, %v), want (NilHandle, ErrArenaExhausted)", h, err)
	}
	// Exhaustion is about fresh carving only: recycling still serves.
	p.Put(0, hs[0])
	if h, err := p.TryGet(0); err != nil || h != hs[0] {
		t.Fatalf("recycled TryGet = (%d, %v), want (%d, nil)", h, err, hs[0])
	}
}

func TestPoolGetPanicsOnExhaustion(t *testing.T) {
	p := NewPool[uint64](1, nil)
	p.limit = 1
	p.Get(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Get past the horizon did not panic")
		}
	}()
	p.Get(0)
}

func TestPoolSizedOverflowNeverDrops(t *testing.T) {
	// The overflow grows to hold every freed handle: even if every pid
	// spills its whole local cache, no handle is ever dropped (a drop
	// would strand an arena record).
	const procs = 4
	p := NewPool[uint64](procs, nil)
	var held [procs][]Handle
	for pid := 0; pid < procs; pid++ {
		for i := 0; i < 2*poolLocalCap; i++ {
			held[pid] = append(held[pid], p.Get(pid))
		}
	}
	// Every pid frees everything it holds, overfilling each local list
	// and forcing repeated spills into the shared overflow.
	for pid := 0; pid < procs; pid++ {
		for _, h := range held[pid] {
			p.Put(pid, h)
		}
	}
	st := p.Stats()
	if st.Spills == 0 {
		t.Fatalf("the churn never spilled: %+v", st)
	}
	if st.Drops != 0 {
		t.Fatalf("correctly sized overflow dropped %d handles: %+v", st.Drops, st)
	}
	// The arena must now satisfy the same demand purely by recycling:
	// every handle is reachable again through its local list or the
	// shared overflow, so no fresh record is carved.
	arena := p.ArenaSize()
	for pid := 0; pid < procs; pid++ {
		for i := 0; i < 2*poolLocalCap; i++ {
			p.Get(pid)
		}
	}
	if grown := p.ArenaSize(); grown != arena {
		t.Fatalf("arena grew %d -> %d although every record was recycled", arena, grown)
	}
	if st := p.Stats(); st.Refills == 0 {
		t.Fatalf("the drain never refilled from overflow: %+v", st)
	}
}

// TestPoolOverflowKeepsEveryHandle frees far more handles from one pid
// than any fixed overflow would hold: every one must come back through
// the overflow, so draining them carves no fresh record.
func TestPoolOverflowKeepsEveryHandle(t *testing.T) {
	const n = 10 * poolLocalCap
	p := NewPool[uint64](2, nil)
	held := make([]Handle, n)
	for i := range held {
		held[i] = p.Get(0)
	}
	for _, h := range held {
		p.Put(0, h)
	}
	arena := p.ArenaSize()
	seen := make(map[Handle]bool, n)
	for i := 0; i < n; i++ {
		seen[p.Get(0)] = true
	}
	if grown := p.ArenaSize(); grown != arena {
		t.Fatalf("arena grew %d -> %d although every handle was freed", arena, grown)
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct handles back, want %d", len(seen), n)
	}
	if st := p.Stats(); st.Drops != 0 {
		t.Fatalf("pool dropped %d handles: %+v", st.Drops, st)
	}
}

func TestTaggedRefCASCatchesRecycledHandle(t *testing.T) {
	// The §2.2 scenario in miniature: a register returns to an old
	// handle after recycling, and the tag makes the stale CAS fail.
	p := NewPool[uint64](1, nil)
	r := NewTaggedRef(p, PackTagged(NilHandle, 0))
	h := p.Get(0)
	old := r.Read()
	r.Write(old.Next(h)) // install h...
	stale := r.Read()    // ...a slow process reads 〈h, 1〉...
	w2 := r.Read()
	if !r.CAS(w2, w2.Next(NilHandle)) { // ...h is removed and retired...
		t.Fatal("CAS by the up-to-date process failed")
	}
	p.Put(0, h)
	h2 := p.Get(0) // ...recycled...
	if h2 != h {
		t.Fatalf("expected recycled handle %d, got %d", h, h2)
	}
	w3 := r.Read()
	r.Write(w3.Next(h2)) // ...and reinstalled: register holds 〈h, 3〉.
	if r.CAS(stale, stale.Next(NilHandle)) {
		t.Fatal("stale CAS succeeded on a recycled handle: tags are not load-bearing")
	}
	if got := r.Read(); got.Handle() != h || got.Tag() != 3 {
		t.Fatalf("register = (%d,%d), want (%d,3)", got.Handle(), got.Tag(), h)
	}
}

func TestTaggedRefObserved(t *testing.T) {
	var st Stats
	p := NewPool[uint64](1, nil)
	r := NewTaggedRefObserved(p, PackTagged(NilHandle, 0), &st)
	w := r.Read()
	r.Write(w)
	r.CAS(w, w)
	if st.Reads() != 1 || st.Writes() != 1 || st.CASes() != 1 {
		t.Fatalf("observer saw %d/%d/%d", st.Reads(), st.Writes(), st.CASes())
	}
	if r.Deref(PackTagged(NilHandle, 9)) != nil {
		t.Fatal("Deref(nil handle) != nil")
	}
	h := p.Get(0)
	*p.At(h) = 5
	if got := r.Deref(PackTagged(h, 0)); got == nil || *got != 5 {
		t.Fatal("Deref missed the pooled record")
	}
	if st.Total() != 3 {
		t.Fatal("Deref must not count as a shared access")
	}
}

func TestPoolChurnStaysBounded(t *testing.T) {
	// The long-run invariant the soak leak audit relies on: once a
	// pool's working set is warm, unbounded get/put churn is served
	// entirely by recycling — Allocs plateau at the high-water mark,
	// ArenaSize never grows past it, and nothing is ever dropped,
	// generation after generation.
	const (
		procs       = 4
		perPid      = 48 // working set per pid, below and above localCap in mix
		generations = 500
	)
	p := NewPool[uint64](procs, nil)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			held := make([]Handle, 0, perPid)
			for gen := 0; gen < generations; gen++ {
				// Vary the per-generation working set so the local list
				// crosses its spill threshold on some generations and
				// not others.
				n := perPid
				if gen%3 == 0 {
					n = 2 * perPid
				}
				for i := 0; i < n; i++ {
					held = append(held, p.Get(pid))
				}
				for _, h := range held {
					p.Put(pid, h)
				}
				held = held[:0]
			}
		}(pid)
	}
	wg.Wait()
	st := p.Stats()
	if st.Drops != 0 {
		t.Fatalf("churn dropped %d handles: %+v", st.Drops, st)
	}
	// The peak simultaneous demand is procs * 2*perPid records. A Get
	// carves a fresh record only when its own pid's local list and the
	// shared overflow are both empty, so every record carved before it
	// is live or parked in another pid's local list, which holds at
	// most poolLocalCap handles (poolLocalCap+1 only inside a Put,
	// whose pid then holds one handle fewer). Allocs therefore never
	// exceed peak + (procs-1)*poolLocalCap; TestPoolChurnBoundIsTight
	// reaches that bound exactly.
	peak := procs * 2 * perPid
	if bound := uint64(peak + (procs-1)*poolLocalCap); st.Allocs > bound {
		t.Fatalf("Allocs %d exceeded peak + (procs-1)*poolLocalCap = %d — the free lists leak: %+v",
			st.Allocs, bound, st)
	}
	if got := uint64(p.ArenaSize()); got != st.Allocs {
		t.Fatalf("ArenaSize %d != Allocs %d", got, st.Allocs)
	}
	// ~500 generations over a plateaued arena means reuse dominates
	// allocation by orders of magnitude.
	if st.Reuses < 100*st.Allocs {
		t.Fatalf("reuse is not carrying the churn: %+v", st)
	}
	// A second churn round runs one pid at a time, so at most perPid
	// handles are live. By the same argument its Gets carve a record
	// only while the arena is smaller than perPid + (procs-1)*
	// poolLocalCap: a warm pool at least that large must not grow at
	// all, and a smaller one grows to that size at most.
	before := p.ArenaSize()
	plateau := max(before, perPid+(procs-1)*poolLocalCap)
	for pid := 0; pid < procs; pid++ {
		for gen := 0; gen < 10; gen++ {
			var held []Handle
			for i := 0; i < perPid; i++ {
				held = append(held, p.Get(pid))
			}
			for _, h := range held {
				p.Put(pid, h)
			}
		}
	}
	if after := p.ArenaSize(); after > plateau {
		t.Fatalf("arena grew %d -> %d on a warm pool (plateau %d)", before, after, plateau)
	}
}

// TestPoolChurnBoundIsTight hits TestPoolChurnStaysBounded's bound
// exactly with two pids: pid 0 parks poolLocalCap handles in its local
// list (no spill), and pid 1, finding its own list and the overflow
// empty, carves its whole working set although those records are free.
func TestPoolChurnBoundIsTight(t *testing.T) {
	const procs, peak = 2, 96
	p := NewPool[uint64](procs, nil)
	held := make([]Handle, 0, peak)
	for i := 0; i < poolLocalCap; i++ {
		held = append(held, p.Get(0))
	}
	for _, h := range held {
		p.Put(0, h)
	}
	for i := 0; i < peak; i++ {
		p.Get(1)
	}
	st := p.Stats()
	if want := uint64(peak + (procs-1)*poolLocalCap); st.Allocs != want {
		t.Fatalf("Allocs = %d, want peak + (procs-1)*poolLocalCap = %d: %+v", st.Allocs, want, st)
	}
	if st.Spills != 0 || st.Drops != 0 {
		t.Fatalf("pid 0's parked handles left its local list: %+v", st)
	}
}
