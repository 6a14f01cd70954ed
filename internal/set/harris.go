package set

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memory"
)

// hmNode is one pooled list node: two words, four to a cache line.
// key is atomic because a stale traverser may overlap a recycler
// rewriting the node (the read is discarded when validation fails, but
// must be data-race-free). next is a bare tagged word 〈successor
// handle, tag〉 plus the memory.TaggedMark deletion bit: unlike the
// pooled Michael-Scott queue, where head/tail are the model's
// registers and node links are private plumbing, here the next words
// ARE the object's shared registers — every traversal step reads one,
// every update CASes one — so the list reports each access to its one
// observer (the deterministic scheduler gates on them), and their tags
// accumulate across node lives. A fresh arena record's zero word is
// already PackTagged(NilHandle, 0).
type hmNode struct {
	key  atomic.Uint64
	next atomic.Uint64
}

// list is the Harris/Michael engine shared by the plain sorted list
// (Harris) and the split-ordered hash set (Hash): the find / insert /
// delete / search window primitives over one pool of recycled nodes,
// parameterized by the register the traversal starts from. Harris
// always starts at its head register; Hash starts at a bucket
// sentinel's next register, which is what turns the O(n) walk into an
// O(1) expected one — the primitives themselves are identical, so the
// mark/unlink, tag-validation, and recycling disciplines are written
// (and model-checked) exactly once.
type list struct {
	pool *memory.Pool[hmNode]
	obs  memory.Observer
}

// newList returns the shared engine for procs processes (pids in
// [0, procs)), reporting register accesses to obs (nil disables
// instrumentation).
func newList(procs int, obs memory.Observer) *list {
	return &list{pool: memory.NewPool[hmNode](procs, nil), obs: obs}
}

// read, write and cas are the only accesses the engine makes to a
// shared register (a head, bucket or next word); each reports to the
// observer first, exactly as a memory.TaggedRef method would.
// Constructors store initial words directly, unobserved.
func (l *list) read(r *atomic.Uint64) memory.TaggedVal {
	if l.obs != nil {
		l.obs.OnAccess(memory.Read)
	}
	return memory.TaggedVal(r.Load())
}

func (l *list) write(r *atomic.Uint64, v memory.TaggedVal) {
	if l.obs != nil {
		l.obs.OnAccess(memory.Write)
	}
	r.Store(uint64(v))
}

func (l *list) cas(r *atomic.Uint64, old, new memory.TaggedVal) bool {
	if l.obs != nil {
		l.obs.OnAccess(memory.CAS)
	}
	return r.CompareAndSwap(uint64(old), uint64(new))
}

// link prepares node h to be linked in front of succ: advancing its
// next word off the word's current content keeps the tag monotonic
// across the node's lives, so a stale CAS from a previous life can
// never match. The node is private until the caller's link CAS
// publishes it.
func (l *list) link(h, succ memory.Handle) {
	n := l.pool.At(h)
	l.write(&n.next, l.read(&n.next).Next(succ))
}

// find walks from the start register to k's window. It returns the
// register holding the window (start itself or a node's next
// register), that register's word predW — whose handle is the first
// node with key >= k, or nil — the current content currW of that
// node's next register (meaningful only when such a node exists), and
// whether the node's key equals k. Marked nodes met on the way are
// unlinked (and retired to pid's free list when this process's unlink
// CAS wins). start must be a register that k's node can only ever
// appear after (the list head, or a bucket sentinel's next register
// for a key belonging to that bucket): a failed validation restarts
// from start, not from any global head.
//
// The verdict linearizes at the last validation read: at that instant
// pred's register still held predW, so the chain up to and including
// the current node was intact and the key read belongs to this life of
// the node.
func (l *list) find(pid int, start *atomic.Uint64, k uint64) (pred *atomic.Uint64, predW, currW memory.TaggedVal, found bool) {
restart:
	for {
		pred = start
		predW = l.read(pred)
		for {
			curr := predW.Handle()
			if curr == memory.NilHandle {
				return pred, predW, 0, false
			}
			cn := l.pool.At(curr)
			currW = l.read(&cn.next)
			ckey := cn.key.Load()
			if l.read(pred) != predW {
				continue restart // pred moved: curr may be another life
			}
			if currW.Marked() {
				// curr is logically deleted: unlink it from pred. A
				// marked node's next register is frozen (every CAS on
				// it expects an unmarked word), so its successor is
				// stable until the node is recycled — and recycling
				// waits for this unlink.
				unlinked := predW.Next(currW.Handle())
				if !l.cas(pred, predW, unlinked) {
					continue restart
				}
				l.pool.Put(pid, curr)
				predW = unlinked
				continue
			}
			if ckey >= k {
				return pred, predW, currW, ckey == k
			}
			pred, predW = &cn.next, currW
		}
	}
}

// insert adds a node with key k into the window found from start; it
// reports whether k was newly inserted. Lock-free: a failed link CAS
// means some concurrent update succeeded.
func (l *list) insert(pid int, start *atomic.Uint64, k uint64) bool {
	for {
		pred, predW, _, found := l.find(pid, start, k)
		if found {
			return false
		}
		h := l.pool.Get(pid)
		l.pool.At(h).key.Store(k)
		l.link(h, predW.Handle())
		if l.cas(pred, predW, predW.Next(h)) {
			return true
		}
		l.pool.Put(pid, h) // never published: safe to recycle directly
	}
}

// delete removes k's node from the window found from start; it reports
// whether k was present. The two-step Harris discipline: mark the
// victim's next word (the linearization point), then unlink it —
// leaving the unlink to a later traversal if the CAS is lost.
func (l *list) delete(pid int, start *atomic.Uint64, k uint64) bool {
	for {
		pred, predW, currW, found := l.find(pid, start, k)
		if !found {
			return false
		}
		curr := predW.Handle()
		if !l.cas(&l.pool.At(curr).next, currW, currW.Next(currW.Handle()).WithMark()) {
			continue // curr changed under us: retry the whole window
		}
		if l.cas(pred, predW, predW.Next(currW.Handle())) {
			l.pool.Put(pid, curr) // this process unlinked it: retire
		}
		return true
	}
}

// search reports whether k is reachable from start. It shares find's
// validated traversal (including the helping unlinks), so it is
// lock-free rather than wait-free.
func (l *list) search(pid int, start *atomic.Uint64, k uint64) bool {
	_, _, _, found := l.find(pid, start, k)
	return found
}

// Harris is the lock-free sorted linked-list set (Harris, DISC 2001,
// in Michael's SPAA 2002 tagged-pointer formulation, which is the one
// compatible with free-list node recycling) over a memory.Pool arena.
// Each node's next register packs 〈successor handle, sequence tag〉
// with the memory.TaggedMark deletion bit; Remove first marks the
// victim's next word (logical delete, atomic with the tag) and then
// unlinks it, and traversals help unlink marked nodes they pass.
//
// Recycling makes §2.2's ABA concrete on every link: a removed node
// goes back to a per-pid free list and can reappear anywhere in the
// list — same handle, different key — while a slow traverser still
// holds its old next word. Two disciplines keep that safe, both from
// DESIGN.md §3: every CAS is tag-validated (a stale word's tag can
// never match, because marks and reuses always advance it), and every
// traversal step is snapshot-validated — after reading the current
// node's fields, the predecessor's register is re-read; if it moved,
// the walk restarts from the head.
//
// Unlike Abortable's copy-on-write root, disjoint windows of the list
// update in parallel; the price is that Contains shares find's
// validated (hence restartable) traversal, so it is lock-free rather
// than wait-free. Operations take the calling pid for the pool's
// per-pid free lists. Every operation walks the whole prefix before
// its key — O(n) per operation; Hash is the same engine behind a
// split-ordered bucket index, at O(1) expected.
type Harris struct {
	l    *list
	head atomic.Uint64
}

// NewHarris returns an empty lock-free set for procs processes (pids
// in [0, procs)).
func NewHarris(procs int) *Harris {
	return NewHarrisObserved(procs, nil)
}

// NewHarrisObserved returns an instrumented lock-free set: head and
// node next-register accesses are reported to obs (nil disables
// instrumentation). Key loads and pool traffic are arena-private and
// not observed.
func NewHarrisObserved(procs int, obs memory.Observer) *Harris {
	return &Harris{l: newList(procs, obs)}
}

// Add inserts k on behalf of pid; it reports whether k was newly
// inserted.
func (s *Harris) Add(pid int, k uint64) bool {
	return s.l.insert(pid, &s.head, k)
}

// Remove deletes k on behalf of pid; it reports whether k was present.
func (s *Harris) Remove(pid int, k uint64) bool {
	return s.l.delete(pid, &s.head, k)
}

// Contains reports membership of k on behalf of pid. It shares find's
// validated traversal (including the helping unlinks), so it is
// lock-free; see Abortable for the wait-free alternative.
func (s *Harris) Contains(pid int, k uint64) bool {
	return s.l.search(pid, &s.head, k)
}

// Len returns the number of unmarked keys; quiescent states only.
func (s *Harris) Len() int { return len(s.Snapshot()) }

// Snapshot returns the unmarked keys in ascending order; quiescent
// states only.
func (s *Harris) Snapshot() []uint64 {
	var out []uint64
	w := s.l.read(&s.head)
	for w.Handle() != memory.NilHandle {
		n := s.l.pool.At(w.Handle())
		nw := s.l.read(&n.next)
		if !nw.Marked() {
			out = append(out, n.key.Load())
		}
		w = nw
	}
	return out
}

// PoolStats exposes the node pool's recycling counters (quiescent
// states only).
func (s *Harris) PoolStats() memory.PoolStats { return s.l.pool.Stats() }

// PoolArenaSize returns the records the node pool has carved; it is
// safe under load.
func (s *Harris) PoolArenaSize() int { return s.l.pool.ArenaSize() }

// Progress reports NonBlocking (lock-freedom).
func (s *Harris) Progress() core.Progress { return core.NonBlocking }

var _ Strong = (*Harris)(nil)
