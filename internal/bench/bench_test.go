package bench

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

func quickCfg() Config { return Config{Quick: true, Procs: 4} }

func TestAllExperimentsRegisteredInOrder(t *testing.T) {
	all := All()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24"}
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incompletely described", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 found")
	}
}

func TestRegisterRejectsDuplicateIDs(t *testing.T) {
	before := len(registry)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("register accepted a duplicate experiment id")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "E1") ||
			!strings.Contains(msg, "contention-free step complexity") ||
			!strings.Contains(msg, "imposter") {
			t.Fatalf("duplicate panic must name both experiments, got: %v", r)
		}
		if len(registry) != before {
			t.Fatalf("failed register mutated the registry: %d -> %d", before, len(registry))
		}
	}()
	//contlint:allow benchregistry the duplicate id is the point: this test asserts register panics on it
	register(Experiment{ID: "E1", Title: "imposter", Claim: "none", Run: nil})
}

// runQuick executes one experiment in Quick mode and returns its
// output, failing the test on error.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(quickCfg(), &buf); err != nil {
		t.Fatalf("%s failed: %v\noutput:\n%s", id, err, buf.String())
	}
	return buf.String()
}

func TestE1CountsMatchTheorem(t *testing.T) {
	out := runQuick(t, "E1")
	if !strings.Contains(out, "strong_push") || !strings.Contains(out, "verdict: measured == paper") {
		t.Fatalf("E1 output incomplete:\n%s", out)
	}
}

func TestE2NoSoloAborts(t *testing.T) {
	out := runQuick(t, "E2")
	if !strings.Contains(out, "model-checked") || strings.Contains(out, "FAIL") {
		t.Fatalf("E2 output unexpected:\n%s", out)
	}
}

func TestE3GlobalProgress(t *testing.T) {
	out := runQuick(t, "E3")
	if !strings.Contains(out, "aborts/op") {
		t.Fatalf("E3 output unexpected:\n%s", out)
	}
}

// TestE3FailsWithoutProgress keeps E3's zero-window resample from
// hiding a real violation: workers whose operations never complete
// must still fail the experiment.
func TestE3FailsWithoutProgress(t *testing.T) {
	cfg := quickCfg()
	cfg.Procs = 1
	stuck := func() e3Worker {
		return func(int, *workload.RNG, *atomic.Uint64) func() bool {
			return func() bool { runtime.Gosched(); return false }
		}
	}
	var buf bytes.Buffer
	if err := runE3With(cfg, &buf, stuck); err == nil {
		t.Fatalf("E3 passed although no operation completed:\n%s", buf.String())
	}
}

func TestE4Fairness(t *testing.T) {
	out := runQuick(t, "E4")
	if !strings.Contains(out, "sensitive RR(TAS) [paper]") || !strings.Contains(out, "jain") {
		t.Fatalf("E4 output unexpected:\n%s", out)
	}
}

func TestE5Throughput(t *testing.T) {
	out := runQuick(t, "E5")
	for _, impl := range []string{"lock(mutex)", "stack/treiber", "stack/non-blocking", "stack/sensitive", "stack/elimination"} {
		if !strings.Contains(out, impl) {
			t.Fatalf("E5 missing %s:\n%s", impl, out)
		}
	}
}

func TestE6Phases(t *testing.T) {
	out := runQuick(t, "E6")
	for _, phase := range []string{"solo-warm", "storm", "solo-cool"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("E6 missing phase %s:\n%s", phase, out)
		}
	}
}

func TestE7Managers(t *testing.T) {
	out := runQuick(t, "E7")
	for _, m := range []string{"none", "yield", "spin", "backoff", "priority"} {
		if !strings.Contains(out, m) {
			t.Fatalf("E7 missing manager %s:\n%s", m, out)
		}
	}
}

func TestE8ABA(t *testing.T) {
	out := runQuick(t, "E8")
	if !strings.Contains(out, "reproduces §2.2") || !strings.Contains(out, "tags prevent ABA") {
		t.Fatalf("E8 output unexpected:\n%s", out)
	}
	for _, row := range []string{"pooled-treiber", "pooled-ms-queue", "pooled-abortable", "tags prevent reuse ABA"} {
		if !strings.Contains(out, row) {
			t.Fatalf("E8 missing pooled row %s:\n%s", row, out)
		}
	}
}

func TestE9Queue(t *testing.T) {
	out := runQuick(t, "E9")
	if !strings.Contains(out, "michael-scott") || !strings.Contains(out, "disjoint ends") {
		t.Fatalf("E9 output unexpected:\n%s", out)
	}
}

func TestE10Locks(t *testing.T) {
	out := runQuick(t, "E10")
	if !strings.Contains(out, "RR(TAS) [§4.4]") || !strings.Contains(out, "starvation-free") {
		t.Fatalf("E10 output unexpected:\n%s", out)
	}
}

func TestE11Linearizability(t *testing.T) {
	out := runQuick(t, "E11")
	if strings.Contains(out, "VIOLATION") {
		t.Fatalf("E11 found a violation:\n%s", out)
	}
	for _, impl := range []string{
		"stack/abortable", "stack/elimination", "stack/treiber",
		"stack/abortable-pooled",
		"queue/michael-scott-pooled", "queue/abortable",
		"queue/sharded[K=1]", "queue/combining",
		"deque/abortable", "deque/non-blocking", "deque/sensitive",
		"set/harris", "set/hashset",
	} {
		if !strings.Contains(out, impl) {
			t.Fatalf("E11 missing %s:\n%s", impl, out)
		}
	}
}

// TestLinTargetsCoverCatalog pins the lin target list to every catalog
// entry of all four kinds (named with its LinNote) plus the three
// internal-only Figure 1 variants, so no target is silently dropped.
func TestLinTargetsCoverCatalog(t *testing.T) {
	var want []string
	for _, b := range repro.Catalog() {
		name := b.Name
		if b.LinNote != "" {
			name += "[" + b.LinNote + "]"
		}
		want = append(want, name)
	}
	want = append(want, "stack/packed", "stack/abortable-pooled", "queue/packed")
	var got []string
	for _, tgt := range LinTargets() {
		got = append(got, tgt.Name)
		if !strings.HasPrefix(tgt.Name, tgt.Kind+"/") {
			t.Errorf("%s: kind %q does not match the name", tgt.Name, tgt.Kind)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("lin targets:\n got %v\nwant %v", got, want)
	}
}

func TestE12FastMutex(t *testing.T) {
	out := runQuick(t, "E12")
	if !strings.Contains(out, "entry+exit") || strings.Contains(out, "FAIL") {
		t.Fatalf("E12 output unexpected:\n%s", out)
	}
}

func TestE13CrashTolerance(t *testing.T) {
	out := runQuick(t, "E13")
	if !strings.Contains(out, "survivor consistent") || strings.Contains(out, "FAIL") {
		t.Fatalf("E13 output unexpected:\n%s", out)
	}
}

func TestE14Deque(t *testing.T) {
	out := runQuick(t, "E14")
	if !strings.Contains(out, "cross-end abort rate") || strings.Contains(out, "VIOLATION") {
		t.Fatalf("E14 output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "deque/sensitive") {
		t.Fatalf("E14 missing lin check:\n%s", out)
	}
}

func TestProcSteps(t *testing.T) {
	got := procSteps(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("procSteps(8) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("procSteps(8) = %v, want %v", got, want)
		}
	}
	got = procSteps(6)
	if got[len(got)-1] != 6 {
		t.Fatalf("procSteps(6) = %v, must end at 6", got)
	}
}

func TestRunTimedReleasesEveryWorker(t *testing.T) {
	const procs, wait = 4, 10 * time.Millisecond
	// The op yields so every released worker gets scheduled inside the
	// window even on a one-CPU host; the claim is the driver's, not the
	// scheduler's.
	counts, elapsed := runTimed(procs, 1, sleep(wait), func(int, *workload.RNG, time.Time) func() {
		return runtime.Gosched
	})
	if len(counts) != procs {
		t.Fatalf("got %d counts, want %d", len(counts), procs)
	}
	for pid, n := range counts {
		if n == 0 {
			t.Errorf("pid %d completed no ops: %v", pid, counts)
		}
	}
	if elapsed < wait {
		t.Errorf("measured window %v is shorter than the %v wait", elapsed, wait)
	}
}

func TestRunRoundsSeedsAndJoins(t *testing.T) {
	const rounds, procs, seed = 3, 4, 1000
	var got [rounds][procs]uint64
	var finished atomic.Int64
	runRounds(rounds, procs, seed, func(round, pid int, rng *workload.RNG) {
		// Quiescent join: every earlier round's workers have finished,
		// and no later round's worker has started.
		if done := finished.Load(); done < int64(round*procs) || done >= int64((round+1)*procs) {
			t.Errorf("round %d pid %d started after %d finished workers", round, pid, done)
		}
		got[round][pid] = rng.Uint64()
		finished.Add(1)
	})
	for round := 0; round < rounds; round++ {
		for pid := 0; pid < procs; pid++ {
			if want := workload.NewRNG(seed + uint64(round*procs+pid)).Uint64(); got[round][pid] != want {
				t.Errorf("round %d pid %d: rng not seeded seed+round*procs+pid", round, pid)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Procs < 4 || c.Duration == 0 || c.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Duration >= c.Duration {
		t.Fatal("Quick did not shrink the duration")
	}
}

func TestE15Combining(t *testing.T) {
	out := runQuick(t, "E15")
	for _, impl := range []string{"lock(mutex)", "lock(tas)", "stack/sensitive", "flat-combining"} {
		if !strings.Contains(out, impl) {
			t.Fatalf("E15 missing %s:\n%s", impl, out)
		}
	}
	if !strings.Contains(out, "fast share") {
		t.Fatalf("E15 missing diagnostics table:\n%s", out)
	}
	for _, row := range []string{"serialized RR(TTAS)", "serialized mutex", "batched flat-combining"} {
		if !strings.Contains(out, row) {
			t.Fatalf("E15 missing contended-path row %s:\n%s", row, out)
		}
	}
}

func TestE16Sharded(t *testing.T) {
	out := runQuick(t, "E16")
	for _, row := range []string{"cont-sensitive", "sharded K=1", "sharded K=4", "steals/op"} {
		if !strings.Contains(out, row) {
			t.Fatalf("E16 missing %s:\n%s", row, out)
		}
	}
}

func TestE19SplitOrderedHash(t *testing.T) {
	out := runQuick(t, "E19")
	for _, row := range []string{
		"set/non-blocking", "set/harris", "set/hashset",
		"flatness", "resizes",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("E19 missing %s:\n%s", row, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("E19 verdicts include FAIL:\n%s", out)
	}
}

func TestE17AllocationFreeHotPaths(t *testing.T) {
	out := runQuick(t, "E17")
	for _, row := range []string{
		"stack/treiber", "stack/abortable",
		"queue/michael-scott-pooled", "stack/abortable-pooled",
		"stack/combining-pooled", "queue/abortable", "queue/combining", "stack/packed",
		"forced reuse",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("E17 missing %s:\n%s", row, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("E17 verdicts include FAIL:\n%s", out)
	}
	// The acceptance bar: every catalog row labelled "0 allocs/op" —
	// the pooled Treiber and Michael-Scott rows and the in-place ring
	// queues — must report exactly 0.000 steady-state allocs/op (scan
	// only the steady-state table; the forced-reuse table repeats the
	// names).
	steady, _, _ := strings.Cut(out, "forced reuse")
	for _, b := range repro.Catalog() {
		if !strings.Contains(b.Allocation, "0 allocs/op") {
			continue
		}
		for _, line := range strings.Split(steady, "\n") {
			if strings.HasPrefix(line, b.Name+" ") &&
				(!strings.Contains(line, " 0.000 ") || !strings.Contains(line, "0 allocs/op")) {
				t.Fatalf("allocation-free hot path allocates: %s", line)
			}
		}
	}
}

func TestE21ScenarioSuite(t *testing.T) {
	out := runQuick(t, "E21")
	// Every library scenario and at least one backend of each kind
	// must appear, alongside the quantile columns slogate parses.
	for _, row := range []string{
		"steady-mixed", "read-mostly", "bursty", "zipf-hot", "phase-flip",
		"producer-consumer", "solo-storm", "churn-slow",
		"stack/treiber", "queue/michael-scott", "deque/sensitive", "set/hashset",
		"p50 ns", "p99 ns", "p999 ns",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("E21 missing %s:\n%s", row, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("E21 reported a conservation failure:\n%s", out)
	}
}

func TestE22CrashSuite(t *testing.T) {
	out := runQuick(t, "E22")
	// The pinned takeover replay, the gate sweep, every crash scenario,
	// and at least one backend per kind must appear, alongside the
	// columns slogate's crash gates parse.
	for _, row := range []string{
		"pinned takeover replay", "crash-point sweep",
		"mid-op-storm", "combiner-crash", "crash-storm",
		"stack/combining", "queue/michael-scott", "deque/sensitive", "set/hashset",
		"survivor-ops", "recovery-ns", "robustness",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("E22 missing %s:\n%s", row, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("E22 reported a conservation failure:\n%s", out)
	}
}

func TestE24SoakSuite(t *testing.T) {
	out := runQuick(t, "E24")
	// Every default soak backend, the schema columns slogate's soak
	// gates parse, and the invariant verdict must appear.
	for _, row := range []string{
		"queue/combining", "stack/treiber", "set/adaptive",
		"faults", "recovered", "stalls", "heap-bytes", "pool-allocs", "audit",
		"soak invariants hold",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("E24 missing %s:\n%s", row, out)
		}
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "INVARIANT FAILED") {
		t.Fatalf("E24 reported an invariant failure:\n%s", out)
	}
}

func TestE20UnifiedDispatch(t *testing.T) {
	out := runQuick(t, "E20")
	// One row per catalog backend, across all four kinds.
	for _, row := range []string{
		"stack/sensitive", "stack/treiber", "queue/sharded",
		"deque/sensitive", "set/hashset", "overhead",
	} {
		if !strings.Contains(out, row) {
			t.Fatalf("E20 missing %s:\n%s", row, out)
		}
	}
}
