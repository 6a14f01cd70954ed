package set

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memory"
)

// Split-ordered hashing (Shalev & Shavit, "Split-Ordered Lists:
// Lock-Free Extensible Hash Tables", J.ACM 2006) turns the pooled
// Harris list into a hash table without ever moving a node: the single
// sorted list holds every key in *bit-reversed* order, and a lazily
// grown bucket array holds shortcuts into it. Key k lives in bucket
// k mod M (M the current table size, a power of two); because the low
// bits that pick the bucket become the HIGH bits of the reversed sort
// key, each bucket's keys are contiguous in the list, and doubling M
// splits every bucket's run in place — the new bucket's sentinel node
// drops into the middle of its parent's run, and no key moves.
//
// Sort-key encoding: one bit distinguishes the two node populations.
//
//	regular key k   → reverse64(k) | 1   (odd)
//	bucket b's sentinel → reverse64(b)   (even)
//
// Sentinels order strictly before every regular key of their bucket
// (equal reversed prefix, even < odd) and the two populations can
// never collide, at the price of one reserved bit: Hash keys must be
// < 2^63. Sentinels are never marked, never removed, and never
// recycled, so a bucket shortcut never dangles.
const (
	// hashInitialBuckets is a fresh table's bucket count.
	hashInitialBuckets = 2
	// hashMaxBuckets caps table doubling; beyond it operations degrade
	// gracefully toward the plain list's O(chain) walks.
	hashMaxBuckets = 1 << 20
	// hashMaxLoad is the average number of regular keys per bucket
	// tolerated before the table doubles. The check is exact in what it
	// compares (the stripe sum against hashMaxLoad·buckets), but a pid
	// makes it only after every max(1, buckets/hashCheckDiv) of its own
	// successful adds. Below hashCheckDiv buckets that is every add, so
	// small tables double at exactly the add that crosses the bound.
	// Above it each of procs pids can hold fewer than
	// buckets/hashCheckDiv unchecked adds, so the load factor can
	// overshoot hashMaxLoad by less than procs/hashCheckDiv before a
	// doubling.
	hashMaxLoad = 3
	// hashCheckDiv scales a pid's resize-check cadence to the table.
	hashCheckDiv = 64
)

// hashMaxKey bounds the representable key range: the low bit of the
// split-order key says sentinel/regular, so the key itself has 63
// bits (exactly the original paper's reserved bit).
const hashMaxKey = uint64(1)<<63 - 1

// regularSkey maps a set key to its split-order sort key.
func regularSkey(k uint64) uint64 {
	if k > hashMaxKey {
		panic("set: Hash keys must be < 2^63 (one bit is reserved to keep sentinel and regular split-order keys apart)")
	}
	return bits.Reverse64(k) | 1
}

// sentinelSkey maps a bucket index to its sentinel's sort key.
func sentinelSkey(b uint64) uint64 { return bits.Reverse64(b) }

// keyOfSkey inverts regularSkey.
func keyOfSkey(sk uint64) uint64 { return bits.Reverse64(sk &^ 1) }

// hashTable is one published generation of the bucket index: a bare
// tagged word per bucket holding 〈sentinel handle, tag〉, NilHandle
// while the bucket is uninitialized (the zero word). Entries are
// shortcut caches — the sentinel nodes themselves live in the list —
// so a table can be copied and republished wholesale (see grow)
// without synchronizing with bucket initializers: a lost shortcut
// update is re-derived from the list.
type hashTable struct {
	mask    uint64
	buckets []atomic.Uint64
}

// Hash is the split-ordered hash set: the same pooled, tagged,
// markable Harris list as Harris — one sorted list, identical window
// primitives, identical recycling discipline — reached through a
// bucket array of sentinel shortcuts, making Add / Remove / Contains
// O(1) expected instead of O(n). Updates on distinct buckets touch
// disjoint windows and proceed in parallel; the table doubles (a copy
// of the shortcut words, CAS-published) when the load factor passes
// hashMaxLoad, and buckets initialize lazily by splitting their
// parent. Keys must be < 2^63 (one reserved bit; see the package
// notes above). Operations take the calling pid for the pool's
// per-pid free lists.
//
// The key count lives in per-pid stripes: Add and Remove write only
// the caller's stripe, so no word outside the list's registers is
// written by every successful update. Size and the resize check sum
// the stripes. Every operation loads l, never written after
// construction, and table, written once per doubling.
type Hash struct {
	l       *list
	table   atomic.Pointer[hashTable]
	stripes []hashStripe // one per pid, in an allocation of their own
	resizes atomic.Uint64
}

// hashStripe is one pid's share of the key count. Its owner writes it
// on every successful update, so the blank pads keep its words at
// least 64 B from any other word — the neighbouring stripes', and
// whatever shares the allocation's first and last lines — at any
// allocation offset. A stripe's count goes negative when its pid
// removes keys another pid added; only the sum means anything.
type hashStripe struct {
	_     [56]byte
	count atomic.Int64 // the pid's successful adds minus its successful removes
	since int          // the pid's successful adds since its last resize check; owner only
	_     [56]byte
}

// NewHash returns an empty split-ordered hash set for procs processes
// (pids in [0, procs)).
func NewHash(procs int) *Hash {
	return NewHashObserved(procs, nil)
}

// NewHashObserved returns an instrumented hash set: bucket-shortcut
// words and node next registers report to obs (nil disables
// instrumentation); key loads, pool traffic, and the table pointer
// (pure metadata — every decision made from a stale table is still
// correct, see grow) are not observed.
func NewHashObserved(procs int, obs memory.Observer) *Hash {
	l := newList(procs, obs)
	s := &Hash{l: l, stripes: make([]hashStripe, procs)}
	// Bucket 0's sentinel anchors the list and exists from birth, so
	// parent walks always terminate. Constructed single-threaded: the
	// pool Get and the word stores are unobserved builder accesses.
	h0 := l.pool.Get(0)
	l.pool.At(h0).key.Store(sentinelSkey(0))
	t := &hashTable{mask: hashInitialBuckets - 1, buckets: make([]atomic.Uint64, hashInitialBuckets)}
	t.buckets[0].Store(uint64(memory.PackTagged(h0, 0)))
	s.table.Store(t)
	return s
}

// bucket resolves k's bucket in the current table and returns the
// start register for its window walks: the bucket sentinel's next
// register. First touch initializes the bucket (and, recursively, any
// uninitialized ancestors).
func (s *Hash) bucket(pid int, k uint64) *atomic.Uint64 {
	t := s.table.Load()
	return s.bucketIn(pid, t, k&t.mask)
}

func (s *Hash) bucketIn(pid int, t *hashTable, b uint64) *atomic.Uint64 {
	w := &t.buckets[b]
	v := s.l.read(w)
	if v.Handle() != memory.NilHandle {
		return &s.l.pool.At(v.Handle()).next
	}
	return s.initBucket(pid, t, b, w, v)
}

// initBucket splits bucket b off its parent (b with its highest set
// bit cleared): it links b's sentinel into the list at its split-order
// position — or adopts the sentinel a concurrent initializer already
// linked — and caches the handle in the bucket word. The linking CAS
// is tag-validated like any other: the §2.2 hazard is live here
// because a loser's prepared node is recycled and can reappear, same
// handle, as anything (the hash-set-split entry of sched.ABAReplays
// replays exactly that window deterministically).
func (s *Hash) initBucket(pid int, t *hashTable, b uint64, w *atomic.Uint64, v memory.TaggedVal) *atomic.Uint64 {
	parent := b &^ (uint64(1) << (63 - uint(bits.LeadingZeros64(b)))) // b > 0: bucket 0 is born initialized
	start := s.bucketIn(pid, t, parent)
	sk := sentinelSkey(b)
	var h memory.Handle
	for {
		pred, predW, _, found := s.l.find(pid, start, sk)
		if found {
			h = predW.Handle() // another initializer won: adopt its sentinel
			break
		}
		h = s.l.pool.Get(pid)
		s.l.pool.At(h).key.Store(sk)
		s.l.link(h, predW.Handle())
		if s.l.cas(pred, predW, predW.Next(h)) {
			break
		}
		s.l.pool.Put(pid, h) // never published: safe to recycle directly
	}
	// Cache the shortcut. Losing this CAS means a concurrent
	// initializer already cached the same handle (sentinels are
	// permanent, so there is exactly one per split-order key);
	// losing the whole word to a table swap just costs a re-derivation.
	s.l.cas(w, v, v.Next(h))
	return &s.l.pool.At(h).next
}

// grow doubles the bucket table when the load factor, taken from the
// stripe sum, still warrants it. The new table adopts the old shortcut words as they stand; a
// bucket initialized in the old table after the copy merely loses its
// shortcut and is re-derived from the list (idempotently — the
// sentinel itself is in the list, not in the table) on next access.
// One CAS publishes the doubled table; a losing grower discards its
// copy. Everything here is metadata: operations running against a
// stale table compute a coarser bucket index whose sentinel is an
// ancestor of the fresh one, so their walks are longer but never
// wrong.
func (s *Hash) grow() {
	t := s.table.Load()
	old := t.mask + 1
	if old >= hashMaxBuckets || int64(s.Size()) <= hashMaxLoad*int64(old) {
		return
	}
	nb := make([]atomic.Uint64, 2*old)
	for i := range t.buckets {
		nb[i].Store(uint64(s.l.read(&t.buckets[i])))
	}
	if s.table.CompareAndSwap(t, &hashTable{mask: 2*old - 1, buckets: nb}) {
		s.resizes.Add(1)
	}
}

// Add inserts k on behalf of pid; it reports whether k was newly
// inserted. O(1) expected: the walk starts at k's bucket sentinel and
// crosses only that bucket's keys. Every max(1, buckets/hashCheckDiv)
// successful adds of pid's own, it checks the load factor (see
// hashMaxLoad).
func (s *Hash) Add(pid int, k uint64) bool {
	sk := regularSkey(k)
	if !s.l.insert(pid, s.bucket(pid, k), sk) {
		return false
	}
	st := &s.stripes[pid]
	st.count.Add(1)
	if st.since++; st.since >= max(1, int(s.table.Load().mask+1)/hashCheckDiv) {
		st.since = 0
		s.grow()
	}
	return true
}

// Remove deletes k on behalf of pid; it reports whether k was present.
// Only regular nodes are ever marked: a sentinel's split-order key is
// even, a removal target's odd, so the shared delete primitive cannot
// touch the bucket skeleton.
func (s *Hash) Remove(pid int, k uint64) bool {
	if !s.l.delete(pid, s.bucket(pid, k), regularSkey(k)) {
		return false
	}
	s.stripes[pid].count.Add(-1)
	return true
}

// Contains reports membership of k on behalf of pid: lock-free, O(1)
// expected, sharing the same validated traversal as the updates.
func (s *Hash) Contains(pid int, k uint64) bool {
	return s.l.search(pid, s.bucket(pid, k), regularSkey(k))
}

// Size returns the number of present keys: the sum of the per-pid
// stripes. Exact at quiescence; safe concurrently (unlike
// Len/Snapshot), where it can be off by the updates that overlap the
// call, since the stripes are read one at a time.
func (s *Hash) Size() int {
	var n int64
	for i := range s.stripes {
		n += s.stripes[i].count.Load()
	}
	return int(n)
}

// Buckets returns the current table size.
func (s *Hash) Buckets() int { return int(s.table.Load().mask + 1) }

// Resizes returns the number of published table doublings.
func (s *Hash) Resizes() uint64 { return s.resizes.Load() }

// Len returns the number of unmarked keys; quiescent states only.
func (s *Hash) Len() int { return len(s.Snapshot()) }

// Snapshot returns the keys in ascending order; quiescent states
// only. The list walk yields split order (bit-reversed), so the keys
// are sorted before returning.
func (s *Hash) Snapshot() []uint64 {
	var out []uint64
	w := s.l.read(&s.l.pool.At(s.l.read(&s.table.Load().buckets[0]).Handle()).next)
	for w.Handle() != memory.NilHandle {
		n := s.l.pool.At(w.Handle())
		nw := s.l.read(&n.next)
		sk := n.key.Load()
		if !nw.Marked() && sk&1 == 1 {
			out = append(out, keyOfSkey(sk))
		}
		w = nw
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PoolStats exposes the node pool's recycling counters.
func (s *Hash) PoolStats() memory.PoolStats { return s.l.pool.Stats() }

// Progress reports NonBlocking (lock-freedom): the table pointer and
// shortcut words only ever help, and every list-level retry implies
// another operation's CAS succeeded.
func (s *Hash) Progress() core.Progress { return core.NonBlocking }

var _ Strong = (*Hash)(nil)
