package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "set throughput vs read ratio: the list-based set tier across backends",
		Claim: "membership traversals open a read-dominated workload shape the stack/queue tier never sees: backends with wait-free or guard-free Contains (sensitive, non-blocking over the COW list) keep read-mostly throughput high, the lock-free Harris list trades per-read validation for disjoint-window updates, and the key range is the contention knob — small ranges collide constantly, large ranges rarely; per-key add/remove accounting must balance on every backend whatever the mix",
		Run:   runE18,
	})
}

// setImpl is a uniform handle on one set implementation for E18.
type setImpl struct {
	name string
	// build returns pid-aware add/remove/contains closures over a
	// fresh instance for procs processes.
	build func(procs int) (
		add func(pid int, k uint64) bool,
		remove func(pid int, k uint64) bool,
		contains func(pid int, k uint64) bool)
}

// setImpls returns E18's comparison set: the lock-based baseline
// plus every strong set backend the public catalog exports (weak
// backends abort under a hammer and are excluded).
func setImpls() []setImpl {
	out := []setImpl{
		{
			name: "lock(mutex)",
			build: func(procs int) (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
				var mu sync.Mutex
				s := spec.NewSet()
				return func(_ int, k uint64) bool {
						mu.Lock()
						defer mu.Unlock()
						return s.Add(k)
					}, func(_ int, k uint64) bool {
						mu.Lock()
						defer mu.Unlock()
						return s.Remove(k)
					}, func(_ int, k uint64) bool {
						mu.Lock()
						defer mu.Unlock()
						return s.Contains(k)
					}
			},
		},
	}
	for _, b := range repro.CatalogByKind(repro.KindSet) {
		if b.Weak {
			continue
		}
		b := b
		out = append(out, setImpl{name: b.Name, build: func(procs int) (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool) {
			return strongSetOps(b, procs)
		}})
	}
	return out
}

// strongSetOps builds a fresh instance of a strong catalog set and
// returns its answers stripped of the always-nil error.
func strongSetOps(b repro.Backend, procs int) (add, remove, contains func(int, uint64) bool) {
	s := b.Set(repro.WithProcs(procs))
	return func(pid int, k uint64) bool { ok, _ := s.Add(pid, k); return ok },
		func(pid int, k uint64) bool { ok, _ := s.Remove(pid, k); return ok },
		func(pid int, k uint64) bool { ok, _ := s.Contains(pid, k); return ok }
}

// driveSetMix prefills every other key (descending, so the insert
// position is always the current front and prefilling stays O(1) per
// key even on the COW backend), then drives procs goroutines of the
// given mix over keys in [0, keyRange) for the duration with per-key
// accounting of successful adds and removes. At quiescence it checks
// conservation against snapshot's resident keys: adds(k) - removes(k)
// must be 0 or 1, and 1 exactly for the keys the snapshot holds — a
// recycled-node tag mistake or a lost update breaks the balance. It
// returns the measured throughput in ops/s and the first violation.
// Shared by E18 (snapshot = probeAll) and E19 (one snapshot walk).
func driveSetMix(procs int, d time.Duration, seed uint64, keyRange int, mix workload.SetMix,
	add, remove, contains func(pid int, k uint64) bool, snapshot func() []uint64) (float64, error) {
	for k := (keyRange - 1) &^ 1; k >= 0; k -= 2 { // largest even key first, odd ranges included
		add(0, uint64(k))
	}
	adds := make([]atomic.Int64, keyRange)
	removes := make([]atomic.Int64, keyRange)
	for k := 0; k < keyRange; k += 2 {
		adds[k].Add(1)
	}
	counts, elapsed := runTimed(procs, seed, sleep(d), func(pid int, rng *workload.RNG, _ time.Time) func() {
		return func() {
			k := uint64(rng.Intn(keyRange))
			switch mix.Next(rng) {
			case workload.SetAdd:
				if add(pid, k) {
					adds[k].Add(1)
				}
			case workload.SetRemove:
				if remove(pid, k) {
					removes[k].Add(1)
				}
			default:
				contains(pid, k)
			}
		}
	})
	rate := opsPerSec(metrics.Sum(counts), elapsed)
	resident := make([]bool, keyRange)
	for _, k := range snapshot() {
		if k >= uint64(keyRange) {
			return rate, fmt.Errorf("quiescent snapshot holds key %d, outside the workload's [0, %d) range", k, keyRange)
		}
		if resident[k] {
			return rate, fmt.Errorf("key %d appears twice in the quiescent snapshot", k)
		}
		resident[k] = true
	}
	for k := range resident {
		diff := adds[k].Load() - removes[k].Load()
		if diff != 0 && diff != 1 {
			return rate, fmt.Errorf("key %d: %d adds vs %d removes", k, adds[k].Load(), removes[k].Load())
		}
		if resident[k] != (diff == 1) {
			return rate, fmt.Errorf("key %d: snapshot membership %v, accounting says %v", k, resident[k], diff == 1)
		}
	}
	return rate, nil
}

// probeAll is E18's quiescent snapshot: Contains on every key in
// [0, keyRange). Each probe is itself O(n) on the list backends, which
// is fine at E18's ranges; E19's wider sweep walks one Snapshot
// instead.
func probeAll(keyRange int, contains func(pid int, k uint64) bool) func() []uint64 {
	return func() []uint64 {
		var in []uint64
		for k := uint64(0); k < uint64(keyRange); k++ {
			if contains(0, k) {
				in = append(in, k)
			}
		}
		return in
	}
}

func runE18(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const procs = 4
	smallKeys, largeKeys := 64, 4096
	if cfg.Quick {
		largeKeys = 512
	}
	mixes := []struct {
		name string
		mix  workload.SetMix
	}{
		{"read-mostly 90/9/1", workload.SetReadMostly},
		{"mixed 50/25/25", workload.SetMixed},
	}
	tb := metrics.NewTable("backend", "mix",
		fmt.Sprintf("keys=%d ops/s", smallKeys),
		fmt.Sprintf("keys=%d ops/s", largeKeys),
		"verdict")
	defer cfg.logTable("E18 set throughput", tb)
	var failed []string
	for _, impl := range setImpls() {
		implFailed := false
		for _, m := range mixes {
			verdict := "conserved"
			var rates [2]float64
			for i, keys := range []int{smallKeys, largeKeys} {
				add, remove, contains := impl.build(procs)
				var err error
				rates[i], err = driveSetMix(procs, cfg.Duration, cfg.Seed, keys, m.mix,
					add, remove, contains, probeAll(keys, contains))
				if err != nil {
					verdict = fmt.Sprintf("FAIL: %v", err)
					implFailed = true
				}
			}
			tb.AddRow(impl.name, m.name, int64(rates[0]), int64(rates[1]), verdict)
		}
		if implFailed {
			failed = append(failed, impl.name)
		}
	}
	if err := fprintf(w, "%d procs, %v per cell, key range = contention knob\n%s",
		procs, cfg.Duration, tb.String()); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("E18: conservation violated on %v", failed)
	}
	return nil
}
