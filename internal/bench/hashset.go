package bench

import (
	"fmt"
	"io"
	"strings"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "split-ordered hashing: O(1) expected set operations vs the O(n) lists",
		Claim: "every list-shaped set backend pays per-operation work that grows with the resident key range — the COW ladder through path copies, the Harris list through full-prefix traversals — while the split-ordered hash layer over the SAME pooled Harris list walks one bucket chain whatever the range: its throughput stays roughly flat from 64 to 65536 keys as the others fall away, the table doubling (resize column) amortizes to O(1), and per-key conservation holds across lazy splits, adopted sentinels, and republished tables",
		Run:   runE19,
	})
}

// e19Impl is one backend of the key-range sweep: the uniform pid-aware
// closures plus a quiescent snapshot for O(n)-once conservation
// checking (E18 verifies by probing every key, which is itself O(n)
// per probe on the list backends — ruinous at 65536) and an optional
// resize counter.
type e19Impl struct {
	name  string
	build func(procs int) (
		add func(pid int, k uint64) bool,
		remove func(pid int, k uint64) bool,
		contains func(pid int, k uint64) bool,
		snapshot func() []uint64,
		resizes func() uint64)
}

// e19Impls selects the key-range sweep's backends from the catalog:
// the strong, lock-free set backends — the COW Figure 2 list, the
// Harris list, and the split-ordered hash layer — whose instances can
// produce the quiescent snapshot the conservation check walks. (The
// guard-serialized backends are covered by E18's narrower ranges; at
// 65536 keys their path copies would dominate the sweep.)
func e19Impls() []e19Impl {
	var out []e19Impl
	for _, b := range repro.CatalogByKind(repro.KindSet) {
		if b.Weak || !strings.Contains(b.Progress, "lock-free") {
			continue
		}
		b := b
		out = append(out, e19Impl{name: b.Name, build: func(procs int) (func(int, uint64) bool, func(int, uint64) bool, func(int, uint64) bool, func() []uint64, func() uint64) {
			s := b.Set(repro.WithProcs(procs))
			inner := repro.Unwrap(s)
			sn, ok := inner.(interface{ Snapshot() []uint64 })
			if !ok {
				panic(fmt.Sprintf("bench: E19 backend %s cannot produce the quiescent snapshot its conservation check walks", b.Name))
			}
			snapshot := sn.Snapshot
			var resizes func() uint64
			if r, ok := inner.(interface{ Resizes() uint64 }); ok {
				resizes = r.Resizes
			}
			add := func(pid int, k uint64) bool { ok, _ := s.Add(pid, k); return ok }
			remove := func(pid int, k uint64) bool { ok, _ := s.Remove(pid, k); return ok }
			contains := func(pid int, k uint64) bool { ok, _ := s.Contains(pid, k); return ok }
			return add, remove, contains, snapshot, resizes
		}})
	}
	return out
}

func runE19(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const procs = 4
	keyRanges := []int{64, 4096, 65536}
	if cfg.Quick {
		keyRanges = []int{64, 512, 4096}
	}
	mixes := []struct {
		name string
		mix  workload.SetMix
	}{
		{"read-mostly 90/9/1", workload.SetReadMostly},
		{"mixed 50/25/25", workload.SetMixed},
	}
	headers := []string{"backend", "mix"}
	for _, keys := range keyRanges {
		headers = append(headers, fmt.Sprintf("keys=%d ops/s", keys))
	}
	headers = append(headers, "flatness", "resizes", "verdict")
	tb := metrics.NewTable(headers...)
	defer cfg.logTable("E19 key-range sweep", tb)
	var failed []string
	for _, impl := range e19Impls() {
		implFailed := false
		for _, m := range mixes {
			verdict := "conserved"
			rates := make([]float64, len(keyRanges))
			resizes := "—"
			for i, keys := range keyRanges {
				add, remove, contains, snapshot, resizeCount := impl.build(procs)
				var err error
				rates[i], err = driveSetMix(procs, cfg.Duration, cfg.Seed, keys, m.mix, add, remove, contains, snapshot)
				if err != nil {
					verdict = fmt.Sprintf("FAIL: %v", err)
					implFailed = true
				}
				if resizeCount != nil && i == len(keyRanges)-1 {
					resizes = fmt.Sprint(resizeCount())
				}
			}
			// Flatness is the headline number: throughput at the widest
			// range as a fraction of the narrowest. O(1) expected work
			// keeps it near 1; O(n) work drives it toward 0.
			row := []interface{}{impl.name, m.name}
			for _, r := range rates {
				row = append(row, int64(r))
			}
			row = append(row, fmt.Sprintf("%.2f", rates[len(rates)-1]/rates[0]), resizes, verdict)
			tb.AddRow(row...)
		}
		if implFailed {
			failed = append(failed, impl.name)
		}
	}
	if err := fprintf(w, "%d procs, %v per cell, key range sweep %v (resizes column = final table doublings at keys=%d)\n%s",
		procs, cfg.Duration, keyRanges, keyRanges[len(keyRanges)-1], tb.String()); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("E19: conservation violated on %v", failed)
	}
	return nil
}
