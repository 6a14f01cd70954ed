package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

func TestBucketsCoverTheirValues(t *testing.T) {
	r := workload.NewRNG(7)
	for range 100000 {
		v := r.Uint64() >> (r.Uint64() % 64)
		low, width := bucketRange(bucketOf(v))
		if v < low || v-low >= width {
			t.Fatalf("value %d outside its bucket [%d, %d+%d)", v, low, low, width)
		}
		if width > 1 && float64(width) > float64(low)/subCount {
			t.Fatalf("bucket of %d: width %d exceeds 1/%d of its lower edge %d", v, width, subCount, low)
		}
	}
}

// TestQuantilesMatchExactSort checks the histogram against an exact
// order statistic: off by less than one bucket width (at most 1/64 of
// the value, or under 1 ns below 64 ns).
func TestQuantilesMatchExactSort(t *testing.T) {
	r := workload.NewRNG(11)
	draws := map[string]func() uint64{
		"uniform":     func() uint64 { return 100 + r.Uint64()%100000 },
		"exponential": func() uint64 { return uint64(r.ExpDuration(5000)) },
		"bimodal": func() uint64 {
			if r.Uint64()%10 < 7 {
				return 150 + r.Uint64()%100
			}
			return 20000 + r.Uint64()%5000
		},
	}
	for name, draw := range draws {
		var h hist
		var exact []uint64
		for range 200000 {
			v := draw()
			h.record(v)
			exact = append(exact, v)
		}
		slices.Sort(exact)
		for _, q := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(exact[int(math.Ceil(q*float64(len(exact))))-1])
			got := h.quantile(q)
			if tol := math.Max(want/subCount, 1); math.Abs(got-want) > tol {
				t.Errorf("%s q=%g: histogram %.2f, exact %.0f (tolerance %.2f)", name, q, got, want, tol)
			}
		}
	}
}

func TestMergeEqualsCombinedStream(t *testing.T) {
	var a, b, all hist
	r := workload.NewRNG(3)
	for i := range 50000 {
		v := r.Uint64() % 1000000
		all.record(v)
		if i%3 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merging two histograms differs from recording the combined stream")
	}
}

// TestChecksCatchLostUpdates drives real backends through fakes that
// lose exactly one update yet report it done: the end-of-round check
// must fail, and must pass on the untouched backend.
func TestChecksCatchLostUpdates(t *testing.T) {
	cfg := config{seed: 5, window: 30 * time.Millisecond, warmup: 10 * time.Millisecond}
	for _, name := range []string{"stack-contended", "queue-contended", "set-write"} {
		s, _ := specByName(name)
		b, err := s.catalogEntry()
		if err != nil {
			t.Fatal(err)
		}
		w := &wl{s: s, backend: b, workers: 2}
		for _, lose := range []bool{false, true} {
			build := func() repro.Ops {
				ops := w.drive()
				if !lose {
					return ops
				}
				real := ops.Do
				var adds atomic.Int64
				ops.Do = func(pid, op int, v uint64) (uint64, error) {
					// Past the prefill, one push or add reports success
					// without reaching the object.
					if op == 0 && adds.Add(1) == 3000 {
						return 1, nil
					}
					return real(pid, op, v)
				}
				return ops
			}
			d, err := w.trial(cfg, nil, 0, 0, build, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.t.verify()
			if lose && err == nil {
				t.Errorf("%s: a lost update passed the check", name)
			}
			if !lose && err != nil {
				t.Errorf("%s: untouched backend failed the check: %v", name, err)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	ops := endToEnd[0] // ops_per_s, higher is better
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		var out []float64
		for _, v := range base {
			out = append(out, v*f)
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{scaled(1.2), "improved"},
		{scaled(0.7), "regressed"},
		{scaled(0.99), "unchanged"},
		{[]float64{60, 140, 70, 130, 100, 65, 135, 100, 90, 110}, "unresolved"},
	} {
		if got := verdict(ops, base, c.b); !strings.HasPrefix(got, c.want) {
			t.Errorf("verdict(%v) = %q, want %s", c.b, got, c.want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricsMatchBenchmarkJSON pins BENCHMARK.json and the benchmark's
// own workload and metric tables to each other, in both directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !slices.Equal(bj.Paths, []string{"cmd/objbench"}) || !slices.Equal(bj.Command, []string{"bash", "cmd/objbench/run.sh"}) {
		t.Errorf("BENCHMARK.json command %q, paths %q", bj.Command, bj.Paths)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, s := range specs {
		want = append(want, s.name+": "+s.why)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads:\nBENCHMARK.json %q\nobjbench       %q", got, want)
	}
	got, want = nil, nil
	for _, m := range bj.EndToEnd {
		got = append(got, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		want = append(want, fmt.Sprintf("%s %s %s %g", m.name, m.unit, m.better, m.bound))
	}
	if !slices.Equal(got, want) {
		t.Errorf("end_to_end:\nBENCHMARK.json %q\nobjbench       %q", got, want)
	}
	got, want = nil, nil
	for _, m := range bj.PerLayer {
		got = append(got, strings.Join([]string{m.Name, m.Unit, m.Better}, " "))
	}
	for _, m := range perLayer {
		want = append(want, strings.Join([]string{m.name, m.unit, m.better}, " "))
	}
	if !slices.Equal(got, want) {
		t.Errorf("per_layer:\nBENCHMARK.json %q\nobjbench       %q", got, want)
	}
}

// TestSmokeReportsEveryMetric runs one round of every workload untraced
// and traced and checks that the printed report and the closing JSON
// line carry exactly BENCHMARK.json's metrics, each with its unit.
func TestSmokeReportsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	seconds := 0.2
	if testing.Short() {
		seconds = 0.05
	}
	var chosen []*spec
	for i := range specs {
		chosen = append(chosen, &specs[i])
	}
	for _, trace := range []bool{false, true} {
		cfg := newConfig(9, seconds, 1, trace)
		var tr *tracer
		if trace {
			tr = newTracer(chosen, cfg.nproc, cfg.window, true)
		}
		rep, err := runBench(cfg, chosen, tr)
		if err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		printReport(&stdout, rep)
		l := resultLine(rep)
		if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
			t.Errorf("trace %t: result line %+v\n%s", trace, l, stdout.String())
		}
		type named struct{ name, unit string }
		var declared []named
		if trace {
			for _, m := range bj.PerLayer {
				declared = append(declared, named{m.Name, m.Unit})
			}
		} else {
			for _, m := range bj.EndToEnd {
				declared = append(declared, named{m.Name, m.Unit})
			}
		}
		printed := map[string]int{} // "name unit" → report rows
		for _, ln := range strings.Split(stdout.String(), "\n") {
			if f := strings.Fields(ln); len(f) >= 3 {
				printed[f[0]+" "+f[2]]++
			}
		}
		want := map[string]string{}
		for _, m := range declared {
			if printed[m.name+" "+m.unit] != len(specs) {
				t.Errorf("trace %t: report has %d rows of %s [%s], want one per workload", trace, printed[m.name+" "+m.unit], m.name, m.unit)
			}
			for _, s := range specs {
				want[s.name+"/"+m.name] = m.unit
			}
		}
		for k, m := range l.Metrics {
			if want[k] != m.Unit {
				t.Errorf("trace %t: result line has %s [%s], BENCHMARK.json declares [%s]", trace, k, m.Unit, want[k])
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %t: %s = %g", trace, k, m.Value)
			}
		}
		for k := range want {
			if _, ok := l.Metrics[k]; !ok {
				t.Errorf("trace %t: result line lacks %s", trace, k)
			}
		}
		if trace {
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.write(path, chosen); err != nil {
				t.Fatal(err)
			}
			if raw, err := os.ReadFile(path); err != nil || !json.Valid(raw) || !bytes.Contains(raw, []byte(`"name":"op"`)) {
				t.Errorf("trace file: %v, valid JSON %t, op spans %t", err, json.Valid(raw), bytes.Contains(raw, []byte(`"name":"op"`)))
			}
		}
	}
}

// TestTracerReusesBuffers checks that traced phases record into the
// buffers newTracer allocated, and that only -trace-out keeps spans.
func TestTracerReusesBuffers(t *testing.T) {
	s, _ := specByName("stack-contended")
	for _, keep := range []bool{false, true} {
		tr := newTracer([]*spec{s}, 2, time.Millisecond, keep)
		var first *opSpan
		for range 3 {
			sp := tr.begin("measure", 0, 0)
			bufs := tr.opBuffers(sp, 0)
			if len(bufs) != 2 || len(bufs[0].spans) != 0 {
				t.Fatalf("keep %t: got %d buffers holding %d spans", keep, len(bufs), len(bufs[0].spans))
			}
			bufs[0].spans = append(bufs[0].spans, opSpan{start: 1, end: 2})
			if first == nil {
				first = &bufs[0].spans[0]
			} else if &bufs[0].spans[0] != first {
				t.Errorf("keep %t: a traced phase got a fresh buffer", keep)
			}
			tr.end(sp)
			tr.keepOps(bufs)
		}
		if want := map[bool]int{false: 0, true: 6}[keep]; len(tr.kept) != want {
			t.Errorf("keep %t: kept %d buffers, want %d", keep, len(tr.kept), want)
		}
	}
}
