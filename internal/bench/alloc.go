package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/stack"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "allocation & GC pressure: boxed vs pooled vs packed hot paths",
		Claim: "recycling nodes and value slots through per-pid pools with §2.2 sequence tags removes the allocator from the hot path: the pooled Treiber and Michael-Scott paths and the Figure 1-3 stack ladder run at 0 steady-state allocs/op where a boxed record per op would cost an allocation and GC cycles to match, and forced reuse — every op recycling a just-retired node — preserves conservation because the tags make every stale CAS fail",
		Run:   runE17,
	})
}

// allocRow is one implementation measured by E17: the driver of a
// freshly built instance, every op retried until it completes.
type allocRow struct {
	name     string
	ops      repro.Ops
	wantZero bool // acceptance: steady state must not allocate
}

// allocRows builds the E17 comparison set: every stack and queue
// backend the public catalog exports (the catalog's allocation
// profile decides which must measure 0 allocs/op), plus the
// internal-only stack rows: the packed bit-packing stack, and the
// Figure 1 stack under its pooled row name (the same body as
// stack/abortable, driven directly rather than through the catalog
// adapter). Weak rows retry their aborts so every measured op
// completed and allocs/op stays comparable with the strong rows.
func allocRows(procs int) []allocRow {
	const k = 1024
	var out []allocRow
	for _, b := range repro.Catalog() {
		if b.Kind != repro.KindStack && b.Kind != repro.KindQueue {
			continue // the set tier has its own workload shape (E18/E19)
		}
		ops := repro.Drive(b, repro.WithCapacity(k), repro.WithProcs(procs))
		if b.Weak {
			ops = retrying(ops, kinds[b.Kind].aborted)
		}
		out = append(out, allocRow{b.Name, ops, strings.Contains(b.Allocation, "0 allocs/op")})
	}
	for _, r := range internalRows() {
		if kindOf(r.name) == repro.KindStack {
			out = append(out, allocRow{r.name, retrying(r.build(k, procs), stack.ErrAborted), true})
		}
	}
	return out
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
func measureAllocs(procs, warmup, ops int, seed uint64, d repro.Ops) allocResult {
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
						_, _ = d.Do(pid, 0, workload.Value(pid, i))
						i++
					} else {
						_, _ = d.Do(pid, 1, 0)
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
	var failed []string
	for _, be := range allocRows(procs) {
		res := measureAllocs(procs, warmup, ops, cfg.Seed, be.ops)
		solo := measureAllocs(1, warmup, ops, cfg.Seed, be.ops)
		verdict := "allocating"
		if res.allocsPerOp < 0.01 {
			verdict = "0 allocs/op"
		}
		if be.wantZero && res.allocsPerOp >= 0.01 {
			verdict = "FAIL: allocates"
			failed = append(failed, be.name)
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

	// Every row whose instance exposes recycling counters runs the
	// forced-reuse schedule.
	tb := metrics.NewTable("backend", "ops", "reuses/op", "arena records", "drops", "verdict")
	defer cfg.logTable("E17 forced reuse", tb)
	for _, tgt := range allocRows(procs) {
		pool, ok := repro.Unwrap(tgt.ops.Instance).(interface{ PoolStats() memory.PoolStats })
		if !ok {
			continue
		}
		popped := make([][]uint64, procs)
		runRounds(1, procs, 0, func(_, pid int, _ *workload.RNG) {
			for i := 0; i < perProc; i++ {
				_, _ = tgt.ops.Do(pid, 0, uint64(pid)<<32|uint64(i))
				if v, err := tgt.ops.Do(pid, 1, 0); err == nil {
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
			v, err := tgt.ops.Do(0, 1, 0)
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
		st := pool.PoolStats()
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
