package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/lock"
	"repro/internal/memory"
)

// weakCounter is a minimal abortable object: one CAS-able counter.
// A single attempt aborts iff the CAS loses a race, so solo attempts
// never abort.
type weakCounter struct {
	w *memory.Word
}

func newWeakCounter() *weakCounter { return &weakCounter{w: memory.NewWord(0)} }

func (c *weakCounter) TryOp(delta uint64) (uint64, bool) {
	v := c.w.Read()
	if c.w.CAS(v, v+delta) {
		return v + delta, true
	}
	return 0, false
}

// flaky aborts the first n attempts, then succeeds returning 42.
type flaky struct {
	remaining int
}

func (f *flaky) try() (int, bool) {
	if f.remaining > 0 {
		f.remaining--
		return 0, false
	}
	return 42, true
}

func TestDoFastPathSolo(t *testing.T) {
	g := NewGuard(lock.IgnorePid(lock.NewTAS()))
	c := newWeakCounter()
	for i := 1; i <= 100; i++ {
		got := Do(g, 0, func() (uint64, bool) { return c.TryOp(1) })
		if got != uint64(i) {
			t.Fatalf("Do #%d = %d, want %d", i, got, i)
		}
	}
	st := g.Stats()
	if st.Fast != 100 || st.Slow != 0 || st.Retries != 0 {
		t.Fatalf("solo stats = %+v, want all fast", st)
	}
}

func TestDoSlowPathOnAbort(t *testing.T) {
	g := NewGuard(lock.IgnorePid(lock.NewTAS()))
	f := &flaky{remaining: 3}
	got := Do(g, 0, f.try)
	if got != 42 {
		t.Fatalf("Do = %d, want 42", got)
	}
	st := g.Stats()
	if st.Fast != 0 || st.Slow != 1 {
		t.Fatalf("stats = %+v, want one slow-path entry", st)
	}
	// 1 aborted fast attempt + line-08 loop: 2 aborts + 1 success.
	if st.Retries != 3 {
		t.Fatalf("retries = %d, want 3", st.Retries)
	}
}

func TestDoShortcutCostIsOneContentionRead(t *testing.T) {
	// The guard itself must add exactly one shared access (the read
	// of CONTENTION) to a successful contention-free operation.
	var st memory.Stats
	g := NewGuardObserved(lock.IgnorePid(lock.NewTAS()), &st)
	c := newWeakCounter()
	Do(g, 0, func() (uint64, bool) { return c.TryOp(1) })
	if got := st.Snapshot(); got.Reads != 1 || got.Writes != 0 || got.CASes != 0 {
		t.Fatalf("guard accesses = %+v, want exactly 1 read", got)
	}
}

func TestDoNeverLocksWhenUncontended(t *testing.T) {
	g := NewGuard(lock.IgnorePid(lock.NewTAS()))
	c := newWeakCounter()
	for i := 0; i < 1000; i++ {
		Do(g, 0, func() (uint64, bool) { return c.TryOp(1) })
	}
	if st := g.Stats(); st.Slow != 0 {
		t.Fatalf("uncontended run took the lock %d times", st.Slow)
	}
}

func TestDoConcurrentExactlyOnce(t *testing.T) {
	const procs, iters = 8, 5000
	g := NewGuard(lock.NewRoundRobin(lock.NewTAS(), procs))
	c := newWeakCounter()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				Do(g, pid, func() (uint64, bool) { return c.TryOp(1) })
			}
		}(p)
	}
	wg.Wait()
	if got := c.w.Read(); got != procs*iters {
		t.Fatalf("counter = %d, want %d (lost or duplicated increments)", got, procs*iters)
	}
	st := g.Stats()
	if st.Fast+st.Slow != procs*iters {
		t.Fatalf("fast+slow = %d, want %d", st.Fast+st.Slow, procs*iters)
	}
}

func TestGuardResetStats(t *testing.T) {
	g := NewGuard(lock.IgnorePid(lock.NewTAS()))
	c := newWeakCounter()
	Do(g, 0, func() (uint64, bool) { return c.TryOp(1) })
	g.ResetStats()
	if st := g.Stats(); st != (GuardStats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// errBot is the ⊥ of the error-shaped weak operations below.
var errBot = errors.New("core: test attempt aborted")

// tryAdd is the counter's weak operation in the objects' (value, error)
// shape, as the Figure 2/3 shells hand it to RetryOp/DoOp.
func (c *weakCounter) tryAdd(delta uint64) func() (uint64, error) {
	return func() (uint64, error) {
		if v, ok := c.TryOp(delta); ok {
			return v, nil
		}
		return 0, errBot
	}
}

func TestSensitiveDo(t *testing.T) {
	s := NewGuarded(lock.IgnorePid(lock.NewTicket()), nil)
	c := newWeakCounter()
	if got, err := DoOp(s.Guard(), 0, errBot, c.tryAdd(5)); got != 5 || err != nil {
		t.Fatalf("DoOp(0,5) = (%d, %v), want (5, nil)", got, err)
	}
	if got, _ := DoOp(s.Guard(), 1, errBot, c.tryAdd(7)); got != 12 {
		t.Fatalf("DoOp(1,7) = %d, want 12", got)
	}
	if s.Guard().Stats().Fast != 2 {
		t.Fatal("guard stats not visible through Guarded")
	}
	// Figure 3 is only as live as its slow-path lock: starvation-free
	// over a starvation-free lock, merely non-blocking over raw TAS.
	for _, c := range []struct {
		name string
		lk   lock.PidLock
		want Progress
	}{
		{"ticket", lock.IgnorePid(lock.NewTicket()), StarvationFree},
		{"RR(TAS)", lock.NewRoundRobin(lock.NewTAS(), 2), StarvationFree},
		{"raw TAS", lock.IgnorePid(lock.NewTAS()), NonBlocking},
	} {
		if got := NewGuarded(c.lk, nil).Progress(); got != c.want {
			t.Errorf("%s: Progress = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSensitiveConcurrent(t *testing.T) {
	const procs, iters = 6, 4000
	c := newWeakCounter()
	s := NewGuarded(lock.NewRoundRobin(lock.NewTTAS(), procs), nil)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				DoOp(s.Guard(), pid, errBot, c.tryAdd(1))
			}
		}(p)
	}
	wg.Wait()
	if got := c.w.Read(); got != procs*iters {
		t.Fatalf("counter = %d, want %d", got, procs*iters)
	}
}

// recordingManager records contention-manager callbacks.
type recordingManager struct {
	aborts    []int
	successes int
}

func (m *recordingManager) OnAbort(attempt int) { m.aborts = append(m.aborts, attempt) }
func (m *recordingManager) OnSuccess()          { m.successes++ }

func TestRetryBareLoop(t *testing.T) {
	f := &flaky{remaining: 5}
	if got := Retry(nil, f.try); got != 42 {
		t.Fatalf("Retry = %d, want 42", got)
	}
}

func TestRetryManagerCallbacks(t *testing.T) {
	m := &recordingManager{}
	f := &flaky{remaining: 3}
	if got := Retry[int](m, f.try); got != 42 {
		t.Fatalf("Retry = %d, want 42", got)
	}
	if m.successes != 1 {
		t.Fatalf("OnSuccess called %d times, want 1", m.successes)
	}
	want := []int{1, 2, 3}
	if len(m.aborts) != len(want) {
		t.Fatalf("OnAbort calls = %v, want %v", m.aborts, want)
	}
	for i := range want {
		if m.aborts[i] != want[i] {
			t.Fatalf("OnAbort calls = %v, want %v", m.aborts, want)
		}
	}
}

func TestRetryCounted(t *testing.T) {
	f := &flaky{remaining: 4}
	got, aborts := RetryCounted[int](nil, f.try)
	if got != 42 || aborts != 4 {
		t.Fatalf("RetryCounted = (%d, %d), want (42, 4)", got, aborts)
	}
	f2 := &flaky{remaining: 0}
	if _, aborts := RetryCounted[int](nil, f2.try); aborts != 0 {
		t.Fatalf("immediate success counted %d aborts", aborts)
	}
}

// alwaysAborts is a weak operation under livelock-grade interference.
func alwaysAborts(attempts *int) func() (int, error) {
	return func() (int, error) { *attempts++; return 0, errBot }
}

// flakyErr is flaky in the (value, error) shape.
func (f *flaky) tryErr() (int, error) {
	if v, ok := f.try(); ok {
		return v, nil
	}
	return 0, errBot
}

func TestRetryBudgetExhausts(t *testing.T) {
	m := &recordingManager{}
	r := NewRetrier(nil)
	r.SetRetryPolicy(m, 3)
	attempts := 0
	v, aborts, err := RetryOp(&r, errBot, alwaysAborts(&attempts))
	if !errors.Is(err, ErrExhausted) || v != 0 {
		t.Fatalf("RetryOp = (%d, %v), want (0, ErrExhausted)", v, err)
	}
	if attempts != 3 || aborts != 3 {
		t.Fatalf("made %d attempts (%d counted aborts), want exactly the budget of 3", attempts, aborts)
	}
	// Pacing happens between attempts, not after the budget is spent: a
	// shed operation must not pay one final backoff on the way out.
	if len(m.aborts) != 2 {
		t.Fatalf("OnAbort called %d times, want 2 (between the 3 attempts)", len(m.aborts))
	}
	if m.successes != 0 {
		t.Fatal("OnSuccess called for an exhausted operation")
	}
}

func TestRetryBudgetSucceedsWithinBudget(t *testing.T) {
	var r Retrier
	r.SetRetryPolicy(nil, 5)
	f := &flaky{remaining: 2}
	got, aborts, err := RetryOp(&r, errBot, f.tryErr)
	if err != nil || got != 42 || aborts != 2 {
		t.Fatalf("RetryOp = (%d, %d, %v), want (42, 2, nil)", got, aborts, err)
	}
	// Success on exactly the last budgeted attempt still counts.
	f2 := &flaky{remaining: 4}
	got, _, err = RetryOp(&r, errBot, f2.tryErr)
	if err != nil || got != 42 {
		t.Fatalf("last-attempt RetryOp = (%d, %v), want (42, nil)", got, err)
	}
	// An error other than ⊥ is the operation's own result, not an abort.
	errFull := errors.New("full")
	if _, aborts, err := RetryOp(&r, errBot, func() (int, error) { return 0, errFull }); err != errFull || aborts != 0 {
		t.Fatalf("non-⊥ error = (%d aborts, %v), want (0, %v)", aborts, err, errFull)
	}
}

func TestRetryBudgetOfOneIsOneAttempt(t *testing.T) {
	// A budget of 1 is exactly one weak attempt: the obstruction-free
	// rung exposed directly.
	var r Retrier
	r.SetRetryPolicy(nil, 1)
	attempts := 0
	if _, _, err := RetryOp(&r, errBot, alwaysAborts(&attempts)); attempts != 1 || !errors.Is(err, ErrExhausted) {
		t.Fatalf("%d attempts, err %v; want 1 attempt, ErrExhausted", attempts, err)
	}
}

func TestRetryOpNilBottomIsAnyError(t *testing.T) {
	// A nil ⊥ treats every non-nil error as an abort, as the set's
	// shells need for ErrAborted and ErrSealed alike.
	var r Retrier
	r.SetRetryPolicy(nil, 4)
	errs := []error{errBot, errors.New("sealed"), nil}
	got, aborts, err := RetryOp(&r, nil, func() (int, error) {
		e := errs[0]
		errs = errs[1:]
		return 7, e
	})
	if got != 7 || aborts != 2 || err != nil {
		t.Fatalf("RetryOp = (%d, %d, %v), want (7, 2, nil)", got, aborts, err)
	}
}

func TestProgressHierarchy(t *testing.T) {
	if !NonBlocking.Implies(ObstructionFree) {
		t.Fatal("non-blocking must imply obstruction-free")
	}
	if !StarvationFree.Implies(NonBlocking) {
		t.Fatal("starvation-free must imply non-blocking")
	}
	if ObstructionFree.Implies(NonBlocking) {
		t.Fatal("obstruction-free must not imply non-blocking")
	}
	if !WaitFree.Implies(StarvationFree) {
		t.Fatal("wait-free must imply starvation-free")
	}
}

func TestProgressString(t *testing.T) {
	cases := map[Progress]string{
		ObstructionFree: "obstruction-free",
		NonBlocking:     "non-blocking",
		StarvationFree:  "starvation-free",
		WaitFree:        "wait-free",
		Progress(9):     "unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Progress(%d).String() = %q, want %q", p, got, want)
		}
	}
}
