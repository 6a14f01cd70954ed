package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// Procs is the maximum process (goroutine) count used by scaling
	// experiments; 0 means 2*GOMAXPROCS clamped to [4, 16].
	Procs int
	// Duration is the measuring window per data point; 0 means 200ms
	// (or 10ms under Quick).
	Duration time.Duration
	// Quick shrinks all budgets for use in unit tests.
	Quick bool
	// Seed seeds the deterministic workload generators.
	Seed uint64
	// Log, when non-nil, collects every experiment's tables in
	// structured form for machine-readable export (contbench -json).
	Log *ResultLog
}

func (c Config) withDefaults() Config {
	if c.Procs == 0 {
		c.Procs = 2 * runtime.GOMAXPROCS(0)
		if c.Procs > 16 {
			c.Procs = 16
		}
		if c.Procs < 4 {
			c.Procs = 4
		}
	}
	if c.Duration == 0 {
		if c.Quick {
			c.Duration = 10 * time.Millisecond
		} else {
			c.Duration = 200 * time.Millisecond
		}
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Experiment is one reproduction experiment.
type Experiment struct {
	// ID is the experiment identifier used by DESIGN.md §4 ("E1"...).
	ID string
	// Title is a one-line description.
	Title string
	// Claim restates what the paper claims (the expected shape).
	Claim string
	// Gate, when non-empty, is the command that applies the
	// experiment's release gates to its -json rows (contbench -list
	// prints it so the gate tool is discoverable next to the id).
	Gate string
	// Run executes the experiment and writes its table(s) to w.
	Run func(cfg Config, w io.Writer) error
}

var registry []Experiment

// register adds an experiment to the catalog. Duplicate ids panic at
// init time with both titles, so an id collision (the E10/E11 clash of
// PR 1, which silently landed as E15/E16) cannot ship again: pick the
// next free number instead (see EXPERIMENTS.md's id-allocation note).
func register(e Experiment) {
	for _, x := range registry {
		if x.ID == e.ID {
			panic(fmt.Sprintf("bench: duplicate experiment id %s (%q vs %q) — allocate the next free id",
				e.ID, x.Title, e.Title))
		}
	}
	registry = append(registry, e)
}

// All returns the experiments in id order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 (numeric, not lexicographic).
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runTimed is the timed closed-loop driver every throughput experiment
// shares. It spawns procs workers, each with an RNG seeded seed+pid,
// and releases them together through a start barrier, so no worker's
// count includes another's start-up. Workers wait at the barrier
// runnable (yielding, not parked), so the window opens on workers that
// are already scheduled rather than on a wave of wake-ups. Once
// released, each worker calls worker once to get its operation, then
// repeats that operation until the caller's wait returns; start is the
// barrier-release instant. It returns each worker's completed-op count
// and the window measured from release to stop.
func runTimed(procs int, seed uint64, wait func(),
	worker func(pid int, rng *workload.RNG, start time.Time) func()) (counts []uint64, elapsed time.Duration) {
	var released, stop atomic.Bool
	var ready, done sync.WaitGroup
	var start time.Time
	counts = make([]uint64, procs)
	for p := 0; p < procs; p++ {
		ready.Add(1)
		done.Add(1)
		go func(pid int) {
			defer done.Done()
			rng := workload.NewRNG(seed + uint64(pid))
			ready.Done()
			for !released.Load() {
				runtime.Gosched()
			}
			op := worker(pid, rng, start)
			n := uint64(0)
			for !stop.Load() {
				op()
				n++
			}
			counts[pid] = n
		}(p)
	}
	ready.Wait()
	start = time.Now()
	released.Store(true)
	wait()
	stop.Store(true)
	elapsed = time.Since(start)
	done.Wait()
	return counts, elapsed
}

// sleep returns a runTimed wait that measures a window of d.
func sleep(d time.Duration) func() {
	return func() { time.Sleep(d) }
}

// runRounds is the fixed-count driver: rounds bursts of procs workers
// with a quiescent join between bursts. Worker (round, pid) runs
// worker once with an RNG seeded seed+round*procs+pid.
func runRounds(rounds, procs int, seed uint64, worker func(round, pid int, rng *workload.RNG)) {
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				worker(round, pid, workload.NewRNG(seed+uint64(round*procs+pid)))
			}(p)
		}
		wg.Wait()
	}
}

// hammer drives procs workers of a balanced push/pop mix (op codes 0
// and 1 of ops) against one stack-like instance for d and returns the
// per-process completed-op counts and the measured window. Values
// follow the workload encoding so failures surface in other
// experiments; here only counts matter.
func hammer(procs int, d time.Duration, seed uint64, ops repro.Ops) ([]uint64, time.Duration) {
	return runTimed(procs, seed, sleep(d), func(pid int, rng *workload.RNG, _ time.Time) func() {
		i := 0
		return func() {
			if workload.Balanced.NextIsPush(rng) {
				_, _ = ops.Do(pid, 0, workload.Value(pid, i))
				i++
			} else {
				_, _ = ops.Do(pid, 1, 0)
			}
		}
	})
}

// rate is a closed-loop run's aggregate throughput in ops/s, truncated
// as the scaling tables print it.
func rate(counts []uint64, elapsed time.Duration) int64 {
	return int64(opsPerSec(metrics.Sum(counts), elapsed))
}

// opsPerSec converts a count over a window into a rate.
func opsPerSec(total uint64, d time.Duration) float64 {
	return float64(total) / d.Seconds()
}

// procSteps returns the proc counts a scaling experiment sweeps:
// 1, 2, 4, ... up to max.
func procSteps(max int) []int {
	var steps []int
	for p := 1; p <= max; p *= 2 {
		steps = append(steps, p)
	}
	if len(steps) == 0 || steps[len(steps)-1] != max {
		steps = append(steps, max)
	}
	return steps
}

// fprintf writes formatted output, propagating the error.
func fprintf(w io.Writer, format string, args ...interface{}) error {
	_, err := fmt.Fprintf(w, format, args...)
	return err
}
