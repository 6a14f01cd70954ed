package sched

import (
	"fmt"
	"slices"

	"repro/internal/memory"
)

// Run is one concurrent test case instance: per-process operation
// sequences over a freshly built object, plus a final invariant check
// executed after all operations complete (in quiescence).
type Run struct {
	// Ops holds one operation list per process; operations of one
	// process execute sequentially on one goroutine.
	Ops [][]func()
	// Check, if non-nil, validates the final state and the collected
	// results (typically via the linearizability checker).
	Check func() error
}

// Builder constructs a fresh Run whose object's registers report to
// obs. It is invoked once per explored schedule, so it must not share
// mutable state between invocations.
type Builder func(obs memory.Observer) Run

// Step is one scheduled shared access.
type Step struct {
	// Pid is the process that performed the access.
	Pid int
	// Access is the kind of register access.
	Access memory.Kind
}

// decision is one scheduling choice: which ready process got the next
// access, among which candidates.
type decision struct {
	chosen     int
	candidates []int
}

// controller serializes the shared accesses of the run's processes:
// it blocks each process at its next access until granted, so that at
// every instant at most one process runs. That one process is cur, the
// pid the scheduler last released (spawned or granted): the release is
// a go statement or a channel send, which orders the write of cur
// before the process reads it. While open — during the build and the
// check — accesses pass through unscheduled.
type controller struct {
	events chan event
	grants []chan struct{}
	cur    int
	open   bool
}

// event is what the running process reports when it stops running:
// it reached a gate (done false) or it finished or panicked (done
// true, err set on a panic).
type event struct {
	done   bool
	access memory.Kind
	err    error
}

// OnAccess implements memory.Observer: report the gate and block until
// the scheduler grants this process's next shared access.
func (c *controller) OnAccess(k memory.Kind) {
	if c.open {
		return
	}
	pid := c.cur
	c.events <- event{access: k}
	<-c.grants[pid]
}

// runOutcome is the full record of one executed schedule.
type runOutcome struct {
	decisions []decision
	trace     []Step
	err       error // Check failure or run error (step budget, panic)
}

// ErrStepBudget reports a run that exceeded the per-run step budget,
// which under this scheduler means some operation performs an
// unbounded number of shared accesses (e.g. a spin loop).
var ErrStepBudget = fmt.Errorf("sched: step budget exceeded (spinning operation?)")

// runOnce executes one schedule of build's run under plan: decisions
// follow prefix while it lasts, then always pick the lowest ready pid.
func runOnce(build Builder, prefix []int, plan CrashPlan, maxSteps int) runOutcome {
	return runSchedule(build, maxSteps, plan, func(d int, cands []int) (int, error) {
		if d >= len(prefix) {
			return cands[0], nil
		}
		if !slices.Contains(cands, prefix[d]) {
			return 0, fmt.Errorf("sched: non-deterministic replay: pid %d not ready at decision %d (ready %v)", prefix[d], d, cands)
		}
		return prefix[d], nil
	})
}

// runRandom executes one uniformly random schedule drawn from rng.
func runRandom(build Builder, rng *uint64, maxSteps int) runOutcome {
	return runSchedule(build, maxSteps, nil, func(_ int, cands []int) (int, error) {
		return cands[int(splitmix64(rng)%uint64(len(cands)))], nil
	})
}

// runSchedule executes one schedule, consulting pick at every decision
// point with the ready pids in increasing order. crashAfter is the
// run's CrashPlan: it maps a pid to the number of granted accesses
// after which that process crashes — it is never scheduled again and
// stays parked at its gate (the paper's §5 crash model — a process
// stops between two shared accesses and takes no further steps). A
// nil plan disables crashes.
func runSchedule(build Builder, maxSteps int, crashAfter CrashPlan, pick func(d int, cands []int) (int, error)) runOutcome {
	var out runOutcome

	c := &controller{events: make(chan event), open: true}
	run := build(c)
	procs := len(run.Ops)
	c.grants = make([]chan struct{}, procs)
	for i := range c.grants {
		c.grants[i] = make(chan struct{}, 1)
	}
	c.open = false

	process := func(pid int) {
		defer func() {
			var err error
			if r := recover(); r != nil {
				err = fmt.Errorf("sched: process %d panicked: %v", pid, r)
			}
			c.events <- event{done: true, err: err}
		}()
		for _, op := range run.Ops[pid] {
			op()
		}
	}

	// Scheduler loop: release one process (spawn the next, or grant a
	// ready one), then wait for it to stop at a gate, finish or panic.
	// Every process is spawned, in pid order, before the first grant.
	granted := make([]int, procs)
	ready := make([]bool, procs)
	access := make([]memory.Kind, procs)
	var panicErr error
	for spawned := 0; ; {
		if spawned < procs {
			c.cur = spawned
			go process(spawned)
			spawned++
		} else {
			cands := make([]int, 0, procs)
			for pid, r := range ready {
				if r {
					cands = append(cands, pid)
				}
			}
			if len(cands) == 0 {
				break // everyone finished or crashed
			}
			var next int
			next, out.err = pick(len(out.decisions), cands)
			if out.err == nil && len(out.decisions) >= maxSteps {
				out.err = ErrStepBudget
			}
			if out.err != nil {
				// Abort the run. Every live process is parked at its
				// gate, so simply returning leaks them in a
				// permanently parked state: zero CPU, reclaimed only
				// at process exit. Releasing them instead would let a
				// genuinely spinning operation (the very thing the
				// step budget catches) burn a core forever.
				// Acceptable for a test substrate; aborts are rare
				// and terminal.
				return out
			}
			out.decisions = append(out.decisions, decision{chosen: next, candidates: cands})
			out.trace = append(out.trace, Step{Pid: next, Access: access[next]})
			granted[next]++
			ready[next] = false
			c.cur = next
			c.grants[next] <- struct{}{}
		}

		ev := <-c.events
		pid := c.cur
		switch limit, dies := crashAfter[pid]; {
		case ev.done:
			if panicErr == nil {
				panicErr = ev.err
			}
		case dies && granted[pid] >= limit:
			// The process crashes here: it stays parked at its gate
			// forever and is never scheduled again.
		default:
			ready[pid] = true
			access[pid] = ev.access
		}
	}
	c.open = true
	out.err = panicErr
	if out.err == nil && run.Check != nil {
		out.err = run.Check()
	}
	return out
}
