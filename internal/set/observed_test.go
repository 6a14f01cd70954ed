package set

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/memory"
)

// TestListObservedAccessCounts pins the exact Read/Write/CAS counts the
// list engine reports to its observer, op by op, for a solo Harris and
// a solo Hash. The deterministic scheduler gates on exactly these
// accesses and E1 counts them, so a change to which words are observed
// (or how often) shows up here before it shifts a pinned replay. The
// Hash sequence crosses a lazy bucket split (the first odd key), a
// table doubling (the seventh key) and a split in the doubled table.
func TestListObservedAccessCounts(t *testing.T) {
	type step struct {
		name string
		op   func()
		want memory.Snapshot
	}
	run := func(t *testing.T, st *memory.Stats, steps []step) {
		t.Helper()
		for _, s := range steps {
			before := st.Snapshot()
			s.op()
			if got := st.Snapshot().Sub(before); got != s.want {
				t.Errorf("%s: observed %+v, want %+v", s.name, got, s.want)
			}
		}
	}
	add := func(s Strong, k uint64) func() { return func() { s.Add(0, k) } }
	rem := func(s Strong, k uint64) func() { return func() { s.Remove(0, k) } }
	has := func(s Strong, k uint64) func() { return func() { s.Contains(0, k) } }

	t.Run("harris", func(t *testing.T) {
		var st memory.Stats
		h := NewHarrisObserved(1, &st)
		if got := st.Snapshot(); got != (memory.Snapshot{}) {
			t.Fatalf("construction observed %+v, want nothing", got)
		}
		run(t, &st, []step{
			{"Add(5) empty", add(h, 5), memory.Snapshot{Reads: 2, Writes: 1, CASes: 1}},
			{"Add(3) head", add(h, 3), memory.Snapshot{Reads: 4, Writes: 1, CASes: 1}},
			{"Add(8) tail", add(h, 8), memory.Snapshot{Reads: 6, Writes: 1, CASes: 1}},
			{"Add(5) present", add(h, 5), memory.Snapshot{Reads: 5, Writes: 0, CASes: 0}},
			{"Contains(8)", has(h, 8), memory.Snapshot{Reads: 7, Writes: 0, CASes: 0}},
			{"Contains(4)", has(h, 4), memory.Snapshot{Reads: 5, Writes: 0, CASes: 0}},
			{"Remove(5)", rem(h, 5), memory.Snapshot{Reads: 5, Writes: 0, CASes: 2}},
			{"Remove(7) absent", rem(h, 7), memory.Snapshot{Reads: 5, Writes: 0, CASes: 0}},
			{"Add(6) recycled", add(h, 6), memory.Snapshot{Reads: 6, Writes: 1, CASes: 1}},
			{"Snapshot", func() { h.Snapshot() }, memory.Snapshot{Reads: 4, Writes: 0, CASes: 0}},
		})
	})

	t.Run("hash", func(t *testing.T) {
		var st memory.Stats
		h := NewHashObserved(1, &st)
		if got := st.Snapshot(); got != (memory.Snapshot{}) {
			t.Fatalf("construction observed %+v, want nothing", got)
		}
		run(t, &st, []step{
			{"Add(0)", add(h, 0), memory.Snapshot{Reads: 3, Writes: 1, CASes: 1}},
			{"Add(1) splits bucket 1", add(h, 1), memory.Snapshot{Reads: 8, Writes: 2, CASes: 3}},
			{"Add(2)", add(h, 2), memory.Snapshot{Reads: 7, Writes: 1, CASes: 1}},
			{"Add(3)", add(h, 3), memory.Snapshot{Reads: 5, Writes: 1, CASes: 1}},
			{"Add(4)", add(h, 4), memory.Snapshot{Reads: 7, Writes: 1, CASes: 1}},
			{"Add(5)", add(h, 5), memory.Snapshot{Reads: 7, Writes: 1, CASes: 1}},
			{"Add(6) doubles the table", add(h, 6), memory.Snapshot{Reads: 13, Writes: 1, CASes: 1}},
			{"Add(7) splits bucket 3", add(h, 7), memory.Snapshot{Reads: 14, Writes: 2, CASes: 3}},
			{"Contains(6) splits bucket 2", has(h, 6), memory.Snapshot{Reads: 15, Writes: 1, CASes: 2}},
			{"Contains(9)", has(h, 9), memory.Snapshot{Reads: 6, Writes: 0, CASes: 0}},
			{"Remove(2)", rem(h, 2), memory.Snapshot{Reads: 4, Writes: 0, CASes: 2}},
			{"Add(10) recycled", add(h, 10), memory.Snapshot{Reads: 5, Writes: 1, CASes: 1}},
			{"Snapshot", func() { h.Snapshot() }, memory.Snapshot{Reads: 13, Writes: 0, CASes: 0}},
		})
		if h.Resizes() != 1 || h.Buckets() != 4 {
			t.Fatalf("resizes %d, buckets %d: the sequence must double exactly once", h.Resizes(), h.Buckets())
		}
	})
}

// TestNodeLayout pins the set's register footprint: a list node is two
// words (key and tagged next, four to a cache line) and a bucket
// shortcut is one word, so a later field cannot quietly regrow them.
// It also pins where Hash's written bookkeeping lives: the key count
// sits in per-pid stripes whose blank pads keep each stripe's words at
// least 64 B (word start to word start) from the previous and next
// stripe's words and from any word outside the stripe array. Fields
// are word-aligned, so two words that far apart never share a 64-byte
// line at any allocation offset. The offsets are read through reflect
// because contlint's mixedatomic pass flags unsafe.Offsetof on atomics.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(hmNode{}); got != 16 {
		t.Fatalf("hmNode is %d bytes, want 16", got)
	}
	f, _ := reflect.TypeFor[hashTable]().FieldByName("buckets")
	if got := f.Type.Elem().Size(); got != 8 {
		t.Fatalf("a bucket word is %d bytes, want 8", got)
	}

	var header []string
	for h, i := reflect.TypeFor[Hash](), 0; i < h.NumField(); i++ {
		header = append(header, h.Field(i).Name)
	}
	if want := []string{"l", "table", "stripes", "resizes"}; !slices.Equal(header, want) {
		t.Fatalf("Hash fields = %v, want %v (the count lives in the stripes)", header, want)
	}

	typ := reflect.TypeFor[hashStripe]()
	var words []string
	var first, last uintptr // offsets of the first and last stripe words
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		if words == nil {
			first = f.Offset
		}
		words = append(words, f.Name)
		last = f.Offset + f.Type.Size() - 8
	}
	if want := []string{"count", "since"}; !slices.Equal(words, want) {
		t.Fatalf("hashStripe words = %v, want %v", words, want)
	}
	if d := first + 8; d < 64 {
		t.Errorf("a stripe's count starts %d B after the word before the stripe, want >= 64", d)
	}
	if d := typ.Size() - last; d < 64 {
		t.Errorf("the next stripe starts %d B after a stripe's last word, want >= 64", d)
	}
	if got := len(NewHash(3).stripes); got != 3 {
		t.Errorf("NewHash(3) has %d stripes, want one per pid", got)
	}
}
