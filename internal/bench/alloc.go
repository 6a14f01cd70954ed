package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/stack"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "allocation & GC pressure: boxed vs pooled vs packed hot paths",
		Claim: "recycling nodes through per-pid pools with §2.2 sequence tags removes the allocator from the hot path: the pooled Treiber and Michael-Scott paths run at 0 steady-state allocs/op where the boxed backends allocate a record per op (with GC cycles to match), and forced reuse — every op recycling a just-retired node — preserves conservation because the tags make every stale CAS fail",
		Run:   runE17,
	})
}

// allocBackend is one implementation measured by E17: pid-aware push
// and pop closures over a freshly built instance.
type allocBackend struct {
	name     string
	pool     func() memory.PoolStats // nil for unpooled backends
	push     func(pid int, v uint64) error
	pop      func(pid int) (uint64, error)
	wantZero bool // acceptance: steady state must not allocate
	// maxAllocs, when positive, caps the solo allocs/op: one worker, so
	// no attempt aborts and the figure counts the records a completed
	// operation needs. Contended rows cannot carry the cap, because a
	// boxed aborted attempt pays its record too.
	maxAllocs float64
}

// soloCeiling caps the solo allocs/op of the boxed Figure 1 stacks,
// whose every solo operation runs one attempt: one TOP record, which
// the help step later installs in STACK[] as is. A second record per
// operation reads 2.0.
var soloCeiling = map[string]float64{
	"stack/abortable": 1.05, "stack/non-blocking": 1.05, "stack/sensitive": 1.05,
	"stack/combining": 1.05, "stack/adaptive": 1.05,
}

// allocBackends builds the E17 comparison set: every stack and queue
// backend the public catalog exports (the catalog's allocation
// profile decides which must measure 0 allocs/op), plus the
// internal-only variants — the packed bit-packing stack and the
// pooled Figure 1 retrofits — that complete each family's
// boxed/packed/pooled triangle.
func allocBackends(procs int) []allocBackend {
	k := 1024
	var out []allocBackend
	for _, b := range repro.Catalog() {
		var push func(int, uint64) error
		var pop func(int) (uint64, error)
		var inner any
		switch b.Kind {
		case repro.KindStack:
			s := b.Stack(repro.WithCapacity(k), repro.WithProcs(procs))
			push, pop, inner = s.Push, s.Pop, repro.Unwrap(s)
		case repro.KindQueue:
			q := b.Queue(repro.WithCapacity(k), repro.WithProcs(procs))
			push, pop, inner = q.Enqueue, q.Dequeue, repro.Unwrap(q)
		default:
			continue // the set tier has its own workload shape (E18/E19)
		}
		if b.Weak {
			// Weak entries make single attempts through the uniform
			// interface; retry aborts so every measured op completed and
			// allocs/op stays comparable with the strong rows (a boxed
			// aborted attempt still pays its records).
			rawPush, rawPop := push, pop
			aborted := stack.ErrAborted
			if b.Kind == repro.KindQueue {
				aborted = queue.ErrAborted
			}
			push = func(pid int, v uint64) error {
				for {
					if err := rawPush(pid, v); !errors.Is(err, aborted) {
						return err
					}
				}
			}
			pop = func(pid int) (uint64, error) {
				for {
					if v, err := rawPop(pid); !errors.Is(err, aborted) {
						return v, err
					}
				}
			}
		}
		be := allocBackend{
			name: b.Name, push: push, pop: pop,
			wantZero:  strings.Contains(b.Allocation, "0 allocs/op"),
			maxAllocs: soloCeiling[b.Name],
		}
		if ps, ok := inner.(interface{ PoolStats() memory.PoolStats }); ok {
			be.pool = ps.PoolStats
		}
		out = append(out, be)
	}

	ap := stack.NewAbortablePooled(k, procs)
	out = append(out, allocBackend{
		name: "stack/abortable-pooled", pool: ap.PoolStats, wantZero: true,
		push: func(pid int, v uint64) error { return retryPush(func(v uint64) error { return ap.TryPush(pid, v) }, v) },
		pop:  func(pid int) (uint64, error) { return retryPop(func() (uint64, error) { return ap.TryPop(pid) }) },
	})
	pk := stack.NewPacked(k)
	out = append(out, allocBackend{
		name: "stack/packed", wantZero: true,
		push: func(_ int, v uint64) error {
			return retryPush(func(v uint64) error { return pk.TryPush(uint32(v)) }, v)
		},
		pop: func(_ int) (uint64, error) {
			return retryPop(func() (uint64, error) { v, err := pk.TryPop(); return uint64(v), err })
		},
	})
	ms := queue.NewMichaelScott[uint64]()
	out = append(out, allocBackend{
		name: "queue/michael-scott(boxed)",
		push: func(_ int, v uint64) error { ms.Enqueue(v); return nil },
		pop:  func(_ int) (uint64, error) { return ms.Dequeue() },
	})

	return out
}

func retryPush(try func(uint64) error, v uint64) error {
	for {
		if err := try(v); !errors.Is(err, stack.ErrAborted) {
			return err
		}
	}
}

func retryPop(try func() (uint64, error)) (uint64, error) {
	for {
		if v, err := try(); !errors.Is(err, stack.ErrAborted) {
			return v, err
		}
	}
}

// allocResult is one measured row.
type allocResult struct {
	allocsPerOp float64
	bytesPerOp  float64
	gcCycles    uint64
	opsPerSec   float64
}

// measureAllocs drives procs goroutines of a balanced push/pop mix and
// measures the heap traffic of the steady state: every worker warms up
// first (growing its structure, pools, and free lists to steady
// state), then the measured window runs a fixed op count per worker
// between two MemStats snapshots. Worker parking around the barrier
// costs a handful of runtime allocations; they are amortized over the
// op count and show up only in the fourth decimal place.
func measureAllocs(procs, warmup, ops int, seed uint64,
	push func(pid int, v uint64) error, pop func(pid int) (uint64, error)) allocResult {
	var warm, done sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < procs; p++ {
		warm.Add(1)
		done.Add(1)
		go func(pid int) {
			defer done.Done()
			rng := workload.NewRNG(seed + uint64(pid))
			i := 0
			mix := func(n int) {
				for j := 0; j < n; j++ {
					if workload.Balanced.NextIsPush(rng) {
						_ = push(pid, workload.Value(pid, i))
						i++
					} else {
						_, _ = pop(pid)
					}
				}
			}
			mix(warmup)
			warm.Done()
			<-start
			mix(ops)
		}(p)
	}
	warm.Wait()
	runtime.GC() // settle warmup garbage before the window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	close(start)
	done.Wait()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)

	total := float64(procs * ops)
	return allocResult{
		allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / total,
		bytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / total,
		gcCycles:    uint64(m1.NumGC - m0.NumGC),
		opsPerSec:   total / elapsed.Seconds(),
	}
}

func runE17(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const procs = 4
	warmup, ops := 20000, 200000
	if cfg.Quick {
		warmup, ops = 2000, 20000
	}

	tb := metrics.NewTable("backend", "allocs/op", "B/op", "GC cycles", "ops/s", "solo allocs/op", "verdict")
	defer cfg.logTable("E17 steady state", tb)
	var failed, over []string
	for _, be := range allocBackends(procs) {
		res := measureAllocs(procs, warmup, ops, cfg.Seed, be.push, be.pop)
		solo := measureAllocs(1, warmup, ops, cfg.Seed, be.push, be.pop)
		verdict := "allocating"
		if res.allocsPerOp < 0.01 {
			verdict = "0 allocs/op"
		}
		if be.wantZero && res.allocsPerOp >= 0.01 {
			verdict = "FAIL: allocates"
			failed = append(failed, be.name)
		}
		if be.maxAllocs > 0 && solo.allocsPerOp > be.maxAllocs {
			verdict = fmt.Sprintf("FAIL: solo > %.2f allocs/op", be.maxAllocs)
			over = append(over, be.name)
		}
		tb.AddRow(be.name,
			fmt.Sprintf("%.3f", res.allocsPerOp),
			fmt.Sprintf("%.1f", res.bytesPerOp),
			res.gcCycles,
			int64(res.opsPerSec),
			fmt.Sprintf("%.3f", solo.allocsPerOp),
			verdict)
	}
	if err := fprintf(w, "steady state, %d procs, %d ops/proc after %d warmup (balanced mix)\n%s",
		procs, ops, warmup, tb.String()); err != nil {
		return err
	}
	if err := runE17ForcedReuse(cfg, w); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("E17: steady state still allocates on %v", failed)
	}
	if len(over) > 0 {
		return fmt.Errorf("E17: solo allocs/op above the ceiling on %v", over)
	}
	return nil
}

// runE17ForcedReuse drives the pooled backends with every worker
// popping right after it pushes, so nearly every operation lands on a
// just-recycled node — recycling pressure high enough that a single
// tag mistake (a stale CAS wrongly succeeding on a reused handle)
// would lose or duplicate a value. Conservation of a full multiset
// plus reuse dominance is the verdict.
func runE17ForcedReuse(cfg Config, w io.Writer) error {
	const procs = 4
	perProc := 50000
	if cfg.Quick {
		perProc = 5000
	}

	// Every catalog backend whose instances expose recycling counters
	// runs the forced-reuse schedule, plus the internal-only pooled
	// Figure 1 stack.
	type target struct {
		name string
		pool func() memory.PoolStats
		push func(pid int, v uint64) error
		pop  func(pid int) (uint64, error)
	}
	var targets []target
	for _, be := range allocBackends(procs) {
		if be.pool != nil {
			targets = append(targets, target{be.name, be.pool, be.push, be.pop})
		}
	}

	tb := metrics.NewTable("backend", "ops", "reuses/op", "arena records", "drops", "verdict")
	defer cfg.logTable("E17 forced reuse", tb)
	for _, tgt := range targets {
		popped := make([][]uint64, procs)
		runRounds(1, procs, 0, func(_, pid int, _ *workload.RNG) {
			for i := 0; i < perProc; i++ {
				_ = tgt.push(pid, uint64(pid)<<32|uint64(i))
				if v, err := tgt.pop(pid); err == nil {
					popped[pid] = append(popped[pid], v)
				}
			}
		})
		seen := make(map[uint64]int)
		for _, vs := range popped {
			for _, v := range vs {
				seen[v]++
			}
		}
		for {
			v, err := tgt.pop(0)
			if err != nil {
				break
			}
			seen[v]++
		}
		conserved := len(seen) == procs*perProc
		for _, n := range seen {
			if n != 1 {
				conserved = false
				break
			}
		}
		st := tgt.pool()
		ops := 2 * procs * perProc
		verdict := "conserved; tags held"
		if !conserved {
			verdict = "FAIL: ABA corruption"
		} else if st.Reuses < st.Allocs {
			verdict = "conserved (reuse low)"
		}
		tb.AddRow(tgt.name, ops,
			fmt.Sprintf("%.2f", float64(st.Reuses)/float64(ops)),
			st.Allocs, st.Drops, verdict)
		if !conserved {
			fprintf(w, "\nforced reuse: every op recycles a just-retired node\n%s", tb.String())
			return fmt.Errorf("E17: %s lost or duplicated values under forced reuse", tgt.name)
		}
	}
	return fprintf(w, "\nforced reuse: every op recycles a just-retired node\n%s", tb.String())
}
