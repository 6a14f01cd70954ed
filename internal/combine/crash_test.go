package combine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCombinerCrashTakeover kills the combiner mid-pass (armed fault
// injection: the serving goroutine Goexits with the lease held and
// CONTENTION raised) and checks that the waiting processes steal the
// lease, re-serve the pending slots, and finish — bounded delay
// instead of the deadlock the pre-lease protocol would exhibit.
func TestCombinerCrashTakeover(t *testing.T) {
	const procs = 4
	var cnt casCounter
	c := NewCore[struct{}, uint64](procs, cnt.tryInc)
	c.SetLeaseBudget(128) // keep recovery fast; correctness is budget-independent

	// Pids 2 and 3 published requests and then crashed (abandoned, the
	// §5 "crashed op is pending" shape), so the combiner's pass has a
	// backlog to work through.
	c.Publish(2, struct{}{})
	c.Publish(3, struct{}{})

	// pid 0 becomes the combiner and crashes after two applications —
	// its own slot and pid 2's — leaving pid 3's request pending and
	// the lease held.
	if !c.ArmCombinerCrash(0, 2) {
		t.Fatal("ArmCombinerCrash refused")
	}
	if c.ArmCombinerCrash(0, 1) {
		t.Fatal("second ArmCombinerCrash should refuse while one is armed")
	}

	var crasherDone sync.WaitGroup
	crasherDone.Add(1)
	go func() {
		defer crasherDone.Done()
		// DoContended publishes and combines; the injection fires on
		// the third slot application and Goexits. The deferred Done
		// still runs (Goexit runs defers), which is how we detect it.
		c.DoContended(0, struct{}{})
		t.Error("crashed combiner returned from DoContended")
	}()
	crasherDone.Wait()
	if got := c.Stats().Crashes; got != 1 {
		t.Fatalf("Crashes = %d, want 1", got)
	}

	// The survivor's op must complete via takeover, and the takeover
	// pass must also serve pid 3's still-pending request.
	done := make(chan struct{})
	var survivorGot uint64
	go func() {
		survivorGot = c.DoContended(1, struct{}{})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivor wedged after combiner crash (no takeover)")
	}

	st := c.Stats()
	if st.Steals == 0 {
		t.Fatalf("no lease steal recorded: %+v", st)
	}
	// Fetch-and-increment applied exactly once per request: pid 0's
	// and pid 2's landed before the crash, pid 1's and pid 3's after
	// the takeover.
	if got := cnt.v.Load(); got != procs {
		t.Fatalf("counter = %d, want %d (lost or double-applied op)", got, procs)
	}
	if survivorGot != 2 && survivorGot != 3 {
		t.Fatalf("survivor's value = %d, want 2 or 3 (served after the takeover)", survivorGot)
	}
}

// TestCombinerCrashBeforeAnyServe crashes the combiner before it
// applies a single slot: even its own operation stays pending, and the
// survivors' takeover serves it (the crashed op "takes effect" after
// the crash — allowed, since a crashed op is pending, §5).
func TestCombinerCrashBeforeAnyServe(t *testing.T) {
	const procs = 2
	var cnt casCounter
	c := NewCore[struct{}, uint64](procs, cnt.tryInc)
	c.SetLeaseBudget(128)

	if !c.ArmCombinerCrash(0, 0) {
		t.Fatal("ArmCombinerCrash refused")
	}
	var crasherDone sync.WaitGroup
	crasherDone.Add(1)
	go func() {
		defer crasherDone.Done()
		c.DoContended(0, struct{}{})
		t.Error("crashed combiner returned")
	}()
	crasherDone.Wait()

	done := make(chan struct{})
	go func() {
		c.DoContended(1, struct{}{})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivor wedged after pre-serve combiner crash")
	}
	// Both the survivor's op and the crashed pid's pending op were
	// applied by the takeover pass.
	if got := cnt.v.Load(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if st := c.Stats(); st.Steals == 0 || st.Crashes != 1 {
		t.Fatalf("Steals = %d, Crashes = %d, want >0, 1", st.Steals, st.Crashes)
	}
}

// TestSlowCombinerKeepsLease freezes a live combiner inside one
// application for longer than the default observation budget takes to
// spin out, but shorter than defaultLeaseTimeout — the shape of a
// combiner thread the OS has descheduled. The waiter must not steal:
// a steal would re-serve the in-flight request and apply it twice.
func TestSlowCombinerKeepsLease(t *testing.T) {
	var cnt casCounter
	var slow atomic.Bool
	slow.Store(true)
	inApply := make(chan struct{})
	c := NewCore[struct{}, uint64](2, func(pid int, arg struct{}) (uint64, bool) {
		if pid == 0 && slow.CompareAndSwap(true, false) {
			close(inApply)
			time.Sleep(defaultLeaseTimeout / 4)
		}
		return cnt.tryInc(pid, arg)
	})
	var combiner sync.WaitGroup
	combiner.Add(1)
	go func() {
		defer combiner.Done()
		c.DoContended(0, struct{}{})
	}()
	<-inApply
	c.DoContended(1, struct{}{})
	combiner.Wait()
	if got := cnt.v.Load(); got != 2 {
		t.Fatalf("counter = %d, want 2 (a request was applied twice)", got)
	}
	if st := c.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0 from a live combiner", st.Steals)
	}
}

// TestDefaultStealWaitsForTimeout crashes the combiner under the
// default lease rule: the survivor still takes over, but only once the
// lease has been frozen for defaultLeaseTimeout.
func TestDefaultStealWaitsForTimeout(t *testing.T) {
	var cnt casCounter
	c := NewCore[struct{}, uint64](2, cnt.tryInc)
	if !c.ArmCombinerCrash(0, 0) {
		t.Fatal("ArmCombinerCrash refused")
	}
	var crasherDone sync.WaitGroup
	crasherDone.Add(1)
	go func() {
		defer crasherDone.Done()
		c.DoContended(0, struct{}{})
		t.Error("crashed combiner returned")
	}()
	crasherDone.Wait()

	start := time.Now()
	c.DoContended(1, struct{}{})
	if took := time.Since(start); took < defaultLeaseTimeout {
		t.Fatalf("survivor stole after %v, before the %v floor", took, defaultLeaseTimeout)
	}
	if got := cnt.v.Load(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if st := c.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
}

// TestPublishAbandonLeavesPendingOp models a process crashing between
// publishing and collecting: the request may be served by a later
// combiner (here it is), and the object stays consistent.
func TestPublishAbandonLeavesPendingOp(t *testing.T) {
	const procs = 2
	var cnt casCounter
	c := NewCore[struct{}, uint64](procs, cnt.tryInc)
	c.Publish(0, struct{}{}) // pid 0 dies here, op pending

	// pid 1's contended op triggers a combining pass, which serves the
	// abandoned slot too.
	c.DoContended(1, struct{}{})
	if got := cnt.v.Load(); got != 2 {
		t.Fatalf("counter = %d, want 2 (abandoned op should be served by the pass)", got)
	}
	if st := c.Stats(); st.Published != 2 || st.Served != 2 {
		t.Fatalf("Published = %d, Served = %d, want 2, 2", st.Published, st.Served)
	}
}

// TestLeasePacking pins the lease word layout the takeover protocol
// and the deterministic schedules rely on.
func TestLeasePacking(t *testing.T) {
	for _, pid := range []int{0, 1, 63} {
		for _, epoch := range []uint32{0, 1, 1<<32 - 1} {
			l := packLease(pid, epoch)
			if leaseOwner(l) != pid || leaseEpoch(l) != epoch {
				t.Fatalf("pack(%d,%d) round-trips to (%d,%d)", pid, epoch, leaseOwner(l), leaseEpoch(l))
			}
		}
	}
	if leaseOwner(uint64(7)) != -1 {
		t.Fatal("owner of a released lease word should be -1 (free)")
	}
}
