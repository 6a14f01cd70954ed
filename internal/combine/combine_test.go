package combine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lock"
)

// casCounter is a minimal abortable object: fetch-and-increment built
// from one CAS word. A solo attempt never aborts; a lost CAS race
// aborts with no effect.
type casCounter struct {
	v atomic.Uint64
}

func (c *casCounter) tryInc(_ int, _ struct{}) (uint64, bool) {
	cur := c.v.Load()
	if c.v.CompareAndSwap(cur, cur+1) {
		return cur, true
	}
	return 0, false
}

// abortingCounter is a casCounter whose next `aborts` attempts abort
// with no effect, as if a concurrent operation had won each race, and
// which counts every attempt, the combiner's included.
type abortingCounter struct {
	casCounter
	aborts, attempts int
}

func (c *abortingCounter) tryInc(pid int, arg struct{}) (uint64, bool) {
	c.attempts++
	if c.aborts > 0 {
		c.aborts--
		return 0, false
	}
	return c.casCounter.tryInc(pid, arg)
}

// TestShortcutRetriesBelowBudget: fewer than lock.SpinBudget aborts
// are absorbed by the shortcut's re-attempts; nothing is published.
func TestShortcutRetriesBelowBudget(t *testing.T) {
	for _, k := range []int{0, 1, lock.SpinBudget - 1} {
		cnt := abortingCounter{aborts: k}
		c := NewCore[struct{}, uint64](2, cnt.tryInc)
		if got := c.Do(0, struct{}{}); got != 0 {
			t.Fatalf("k=%d: Do returned %d, want 0", k, got)
		}
		if st := c.Stats(); st.Fast != 1 || st.Published != 0 || st.Combines != 0 {
			t.Fatalf("k=%d: Fast %d, Published %d, Combines %d; want 1, 0, 0", k, st.Fast, st.Published, st.Combines)
		}
		if cnt.attempts != k+1 {
			t.Fatalf("k=%d: %d attempts, want %d", k, cnt.attempts, k+1)
		}
	}
}

// TestShortcutPublishesAfterBudget: when every shortcut attempt
// aborts, the op publishes after exactly lock.SpinBudget of them and
// its own combining pass serves it. The three aborts beyond the budget
// land in the pass (Retries 3), which pins where the shortcut stopped.
func TestShortcutPublishesAfterBudget(t *testing.T) {
	const inPass = 3
	cnt := abortingCounter{aborts: lock.SpinBudget + inPass}
	c := NewCore[struct{}, uint64](2, cnt.tryInc)
	if got := c.Do(0, struct{}{}); got != 0 {
		t.Fatalf("Do returned %d, want 0", got)
	}
	st := c.Stats()
	if st.Fast != 0 || st.Published != 1 || st.Served != 1 || st.Retries != inPass {
		t.Fatalf("Fast %d, Published %d, Served %d, Retries %d; want 0, 1, 1, %d",
			st.Fast, st.Published, st.Served, st.Retries, inPass)
	}
	if want := lock.SpinBudget + inPass + 1; cnt.attempts != want {
		t.Fatalf("%d attempts, want %d", cnt.attempts, want)
	}
}

// TestShortcutYieldsToRaisedContention: with CONTENTION raised the
// shortcut makes no attempt; the op publishes and the only attempt is
// the combiner's.
func TestShortcutYieldsToRaisedContention(t *testing.T) {
	var cnt abortingCounter
	c := NewCore[struct{}, uint64](2, cnt.tryInc)
	c.contention.Write(true)
	c.Do(0, struct{}{})
	if st := c.Stats(); st.Fast != 0 || st.Published != 1 || st.Served != 1 {
		t.Fatalf("Fast %d, Published %d, Served %d; want 0, 1, 1", st.Fast, st.Published, st.Served)
	}
	if cnt.attempts != 1 {
		t.Fatalf("%d attempts, want 1 (the combiner's)", cnt.attempts)
	}
	if c.contention.Read() {
		t.Fatal("CONTENTION still raised after the pass")
	}
}

// TestArmedPidSkipsShortcut: an armed pid publishes without a shortcut
// attempt while other pids keep the shortcut, and a solo armed run
// with after = 0 crashes on its first pass.
func TestArmedPidSkipsShortcut(t *testing.T) {
	var cnt abortingCounter
	c := NewCore[struct{}, uint64](2, cnt.tryInc)
	if !c.ArmCombinerCrash(1, 5) {
		t.Fatal("ArmCombinerCrash refused")
	}
	c.Do(0, struct{}{})
	if st := c.Stats(); st.Fast != 1 || st.Published != 0 {
		t.Fatalf("unarmed pid: Fast %d, Published %d; want 1, 0", st.Fast, st.Published)
	}
	c.Do(1, struct{}{})
	if st := c.Stats(); st.Fast != 1 || st.Published != 1 || st.Served != 1 || st.Crashes != 0 {
		t.Fatalf("armed pid: Fast %d, Published %d, Served %d, Crashes %d; want 1, 1, 1, 0",
			st.Fast, st.Published, st.Served, st.Crashes)
	}
	if cnt.attempts != 2 {
		t.Fatalf("%d attempts, want 2 (pid 0's shortcut, pid 1's combiner)", cnt.attempts)
	}

	var solo abortingCounter
	c = NewCore[struct{}, uint64](1, solo.tryInc)
	if !c.ArmCombinerCrash(0, 0) {
		t.Fatal("ArmCombinerCrash refused")
	}
	var crashed sync.WaitGroup
	crashed.Add(1)
	go func() {
		defer crashed.Done()
		c.Do(0, struct{}{})
		t.Error("armed solo Do returned instead of crashing")
	}()
	crashed.Wait()
	if st := c.Stats(); st.Crashes != 1 || st.Published != 1 || st.Fast != 0 {
		t.Fatalf("Crashes %d, Published %d, Fast %d; want 1, 1, 0", st.Crashes, st.Published, st.Fast)
	}
	if solo.attempts != 0 {
		t.Fatalf("%d attempts, want 0 (crash before the first apply)", solo.attempts)
	}
}

func TestSoloStaysOnFastPath(t *testing.T) {
	var cnt casCounter
	c := NewCore[struct{}, uint64](4, cnt.tryInc)
	const ops = 1000
	for i := 0; i < ops; i++ {
		if got := c.Do(0, struct{}{}); got != uint64(i) {
			t.Fatalf("op %d returned %d", i, got)
		}
	}
	st := c.Stats()
	if st.Fast != ops {
		t.Fatalf("Fast = %d, want %d (solo ops must not publish)", st.Fast, ops)
	}
	if st.Published != 0 || st.Combines != 0 {
		t.Fatalf("solo run published %d / combined %d times", st.Published, st.Combines)
	}
}

func TestConcurrentIncrementsAreExactlyOnce(t *testing.T) {
	const procs, perProc = 8, 5000
	var cnt casCounter
	c := NewCore[struct{}, uint64](procs, cnt.tryInc)
	results := make([][]uint64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			out := make([]uint64, 0, perProc)
			for i := 0; i < perProc; i++ {
				out = append(out, c.Do(pid, struct{}{}))
			}
			results[pid] = out
		}(p)
	}
	wg.Wait()

	// Fetch-and-increment hands out each value exactly once: the Do
	// layer must neither lose a published request nor apply it twice.
	seen := make(map[uint64]bool)
	for _, vs := range results {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d returned twice (request applied twice)", v)
			}
			seen[v] = true
		}
	}
	if want := procs * perProc; len(seen) != want {
		t.Fatalf("distinct results = %d, want %d", len(seen), want)
	}
	if got := cnt.v.Load(); got != uint64(procs*perProc) {
		t.Fatalf("counter = %d, want %d", got, procs*perProc)
	}
}

func TestCombinerAccounting(t *testing.T) {
	const procs, perProc = 8, 5000
	var cnt casCounter
	c := NewCore[struct{}, uint64](procs, cnt.tryInc)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				c.Do(pid, struct{}{})
			}
		}(p)
	}
	wg.Wait()

	st := c.Stats()
	if st.Fast+st.Published != procs*perProc {
		t.Fatalf("Fast(%d) + Published(%d) != %d ops", st.Fast, st.Published, procs*perProc)
	}
	// At quiescence every published request has been served by exactly
	// one combining pass (its own or another process's).
	if st.Served != st.Published {
		t.Fatalf("Served = %d, Published = %d (requests lost or double-served)", st.Served, st.Published)
	}
	if st.Published > 0 && st.Combines == 0 {
		t.Fatal("requests were published but no combining pass ran")
	}
	if st.Combines > st.Published {
		t.Fatalf("Combines = %d > Published = %d", st.Combines, st.Published)
	}
	if st.MaxBatch > procs*combinePasses {
		t.Fatalf("MaxBatch = %d exceeds %d slots x %d passes", st.MaxBatch, procs, combinePasses)
	}
	if mean := st.BatchMean(); st.Combines > 0 && (mean < 1 || mean > float64(procs*combinePasses)) {
		t.Fatalf("BatchMean = %v out of range", mean)
	}
}

func TestResetStats(t *testing.T) {
	var cnt casCounter
	c := NewCore[struct{}, uint64](2, cnt.tryInc)
	for i := 0; i < 10; i++ {
		c.Do(0, struct{}{})
	}
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset: %+v", st)
	}
	if c.Procs() != 2 {
		t.Fatalf("Procs = %d", c.Procs())
	}
}

func TestArgsAndResultsAreDeliveredToTheRightProcess(t *testing.T) {
	// Each op's result must come back to its publisher, not another
	// waiter: echo pid-tagged args through an abortable identity op.
	const procs, perProc = 8, 3000
	var word atomic.Uint64
	try := func(_ int, arg uint64) (uint64, bool) {
		cur := word.Load()
		if word.CompareAndSwap(cur, arg) {
			return arg, true
		}
		return 0, false
	}
	c := NewCore[uint64, uint64](procs, try)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				arg := uint64(pid)<<32 | uint64(i)
				if got := c.Do(pid, arg); got != arg {
					t.Errorf("pid %d op %d: got %x, want %x (result cross-delivered)", pid, i, got, arg)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}
