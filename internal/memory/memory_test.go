package memory

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWordReadWrite(t *testing.T) {
	w := NewWord(7)
	if got := w.Read(); got != 7 {
		t.Fatalf("Read() = %d, want 7", got)
	}
	w.Write(42)
	if got := w.Read(); got != 42 {
		t.Fatalf("Read() after Write = %d, want 42", got)
	}
}

func TestWordCASSemantics(t *testing.T) {
	w := NewWord(1)
	if !w.CAS(1, 2) {
		t.Fatal("CAS(1,2) on value 1 failed")
	}
	if w.CAS(1, 3) {
		t.Fatal("CAS(1,3) on value 2 succeeded")
	}
	if got := w.Read(); got != 2 {
		t.Fatalf("value = %d, want 2", got)
	}
}

func TestFlagSemantics(t *testing.T) {
	f := NewFlag(false)
	if f.Read() {
		t.Fatal("initial flag true, want false")
	}
	f.Write(true)
	if !f.Read() {
		t.Fatal("flag false after Write(true)")
	}
	if f.CAS(false, true) {
		t.Fatal("CAS(false,true) succeeded on true flag")
	}
	if !f.CAS(true, false) {
		t.Fatal("CAS(true,false) failed on true flag")
	}
}

func TestRefCASIsIdentityBased(t *testing.T) {
	type rec struct{ v int }
	a, b := &rec{1}, &rec{1}
	r := NewRef(a)
	if r.CAS(b, &rec{2}) {
		t.Fatal("CAS with equal-valued but distinct pointer succeeded")
	}
	if !r.CAS(a, b) {
		t.Fatal("CAS with the read pointer failed")
	}
	if got := r.Read(); got != b {
		t.Fatalf("Read() = %p, want %p", got, b)
	}
}

func TestWordCASMutualExclusion(t *testing.T) {
	// Under contention, exactly one CAS per round may succeed.
	const procs, rounds = 8, 2000
	w := NewWord(0)
	var wins [procs]int
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := uint64(0); r < rounds; r++ {
				if w.CAS(r, r+1) {
					wins[p]++
				}
				for w.Read() == r { // wait for the round to advance
				}
			}
		}(p)
	}
	wg.Wait()
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != rounds {
		t.Fatalf("total CAS wins = %d, want %d", total, rounds)
	}
	if got := w.Read(); got != rounds {
		t.Fatalf("final value = %d, want %d", got, rounds)
	}
}

func TestStatsCounts(t *testing.T) {
	var st Stats
	w := NewWordObserved(0, &st)
	f := NewFlagObserved(false, &st)
	w.Read()
	w.Write(1)
	w.CAS(1, 2)
	w.CAS(9, 10) // failed CAS still counts as an access
	f.Read()
	sn := st.Snapshot()
	if sn.Reads != 2 || sn.Writes != 1 || sn.CASes != 2 {
		t.Fatalf("snapshot = %+v, want 2 reads, 1 write, 2 CASes", sn)
	}
	if st.Total() != 5 {
		t.Fatalf("Total() = %d, want 5", st.Total())
	}
	st.Reset()
	if st.Total() != 0 {
		t.Fatalf("Total() after Reset = %d, want 0", st.Total())
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{Reads: 10, Writes: 4, CASes: 6}
	b := Snapshot{Reads: 3, Writes: 1, CASes: 2}
	d := a.Sub(b)
	if d != (Snapshot{Reads: 7, Writes: 3, CASes: 4}) {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Total() != 14 {
		t.Fatalf("Total = %d, want 14", d.Total())
	}
}

func TestMultiObserverFansOut(t *testing.T) {
	var a, b Stats
	m := MultiObserver{&a, &b}
	w := NewWordObserved(0, m)
	w.Read()
	w.Write(1)
	if a.Total() != 2 || b.Total() != 2 {
		t.Fatalf("fan-out totals = %d, %d, want 2, 2", a.Total(), b.Total())
	}
}

func TestFuncObserver(t *testing.T) {
	var kinds []Kind
	w := NewWordObserved(0, FuncObserver(func(k Kind) { kinds = append(kinds, k) }))
	w.Read()
	w.CAS(0, 1)
	w.Write(2)
	want := []Kind{Read, CAS, Write}
	if len(kinds) != len(want) {
		t.Fatalf("observed %d accesses, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("access %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Read: "read", Write: "write", CAS: "cas", Kind(99): "unknown"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestWordsArray(t *testing.T) {
	var st Stats
	a := NewWordsObserved(4, 9, &st)
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if got := a.Read(i); got != 9 {
			t.Fatalf("Read(%d) = %d, want 9", i, got)
		}
	}
	a.Write(2, 1)
	if a.Read(2) != 1 || a.Read(1) != 9 {
		t.Fatal("write leaked between array entries")
	}
	if !a.CAS(3, 9, 5) || a.CAS(3, 9, 6) || a.Read(3) != 5 {
		t.Fatal("CAS did not compare against register 3 alone")
	}
	if st.Total() != 10 { // 4 reads + 1 write + 2 verification reads + 2 CASes + 1 read
		t.Fatalf("array accesses = %d, want 10", st.Total())
	}
}

func TestRefsArray(t *testing.T) {
	type rec struct{ v int }
	a := NewRefs(3, func(i int) *rec { return &rec{v: i * i} }, nil)
	for i := 0; i < a.Len(); i++ {
		if got := a.Read(i).v; got != i*i {
			t.Fatalf("Read(%d).v = %d, want %d", i, got, i*i)
		}
	}
	old, b := a.Read(1), &rec{v: 7}
	if a.CAS(1, &rec{v: 1}, b) {
		t.Fatal("CAS with equal-valued but distinct pointer succeeded")
	}
	if !a.CAS(1, old, b) || a.Read(1) != b {
		t.Fatal("CAS with the read pointer failed")
	}
	a.Write(2, b)
	if a.Read(2) != b || a.Read(0).v != 0 {
		t.Fatal("write leaked between array entries")
	}
}

// kindLog is an Observer recording every access kind in order.
type kindLog struct{ kinds []Kind }

func (l *kindLog) OnAccess(k Kind) { l.kinds = append(l.kinds, k) }

func TestArraysReportEachIndexedAccess(t *testing.T) {
	// Every indexed access reports exactly one access of its own kind,
	// as the single-register types do.
	type rec struct{ v int }
	var wl, rl kindLog
	w := NewWordsObserved(3, 0, &wl)
	r := NewRefs(3, func(int) *rec { return &rec{} }, &rl)
	want := []Kind{Read, Write, CAS, CAS}
	w.Read(0)
	w.Write(1, 4)
	w.CAS(1, 4, 5)
	w.CAS(2, 9, 9) // failed CAS still counts as an access
	p := r.Read(0)
	r.Write(1, p)
	r.CAS(1, p, &rec{})
	r.CAS(2, p, p)
	for name, got := range map[string][]Kind{"Words": wl.kinds, "Refs": rl.kinds} {
		if len(got) != len(want) {
			t.Fatalf("%s observed %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s observed %v, want %v", name, got, want)
			}
		}
	}
}

func TestArraysNilObserverReportsNothing(t *testing.T) {
	// A nil observer disables instrumentation: accesses go straight to
	// the registers and nothing is reported or dereferenced.
	w := NewWords(2, 1)
	r := NewRefs(2, func(int) *int { return new(int) }, nil)
	w.Read(0)
	w.Write(1, 2)
	w.CAS(1, 2, 3)
	r.Write(0, r.Read(1))
	r.CAS(0, r.Read(0), nil)
	if w.Read(1) != 3 || r.Read(0) != nil {
		t.Fatal("uninstrumented arrays misbehaved")
	}
}

func TestPackTopRoundTrip(t *testing.T) {
	f := func(index uint16, value uint32, seq uint32) bool {
		idx := int(index) & IndexMask
		w := PackTop(idx, value, seq)
		gi, gv, gs := UnpackTop(w)
		return gi == idx && gv == value && gs == seq&SeqMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackCellRoundTrip(t *testing.T) {
	f := func(value uint32, seq uint32) bool {
		gv, gs := UnpackCell(PackCell(value, seq))
		return gv == value && gs == seq&SeqMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackTopDistinctFields(t *testing.T) {
	// Changing one field must never alias another packed word.
	a := PackTop(1, 0, 0)
	b := PackTop(0, 1, 0)
	c := PackTop(0, 0, 1)
	if a == b || b == c || a == c {
		t.Fatalf("packed fields alias: %x %x %x", a, b, c)
	}
}

func TestPackTopPanicsOutOfRange(t *testing.T) {
	for _, idx := range []int{-1, MaxIndex + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackTop(%d,...) did not panic", idx)
				}
			}()
			PackTop(idx, 0, 0)
		}()
	}
}

func TestSeqArithmetic(t *testing.T) {
	if NextSeq(0) != 1 {
		t.Fatal("NextSeq(0) != 1")
	}
	if NextSeq(SeqMask) != 0 {
		t.Fatal("NextSeq does not wrap")
	}
	if PrevSeq(0) != SeqMask {
		t.Fatal("PrevSeq(0) is not the encoding of -1")
	}
	f := func(s uint32) bool {
		s &= SeqMask
		return PrevSeq(NextSeq(s)) == s && NextSeq(PrevSeq(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
