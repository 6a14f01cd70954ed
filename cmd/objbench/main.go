// Objbench is the repository's benchmark: a single-process, closed-loop
// load generator that drives catalog backends through repro.Drive, the
// public contract, and checks every round's results.
//
// From the repository root (run.sh builds the binary from source first):
//
//	bash cmd/objbench/run.sh -workload stack-solo -seed 1 -seconds 22
//	bash cmd/objbench/run.sh -seed 1 -json out.json        # all five workloads, rounds interleaved
//	bash cmd/objbench/run.sh -workload set-write -trace 1 -trace-out trace.json
//	bash cmd/objbench/run.sh -compare A1.json,A2.json,A3.json B1.json,B2.json,B3.json
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics and records spans. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Any failed check exits 1. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A run measures each workload in rounds rounds. A round builds a fresh
// object and reports one value per metric. setupReps is how many times
// an untraced round builds and prefills its object; setup_s is the
// median over every build of the run.
const (
	rounds    = 16
	setupReps = 5
)

type config struct {
	seed   uint64
	rounds int
	window time.Duration // one measured phase
	warmup time.Duration
	prims  time.Duration // one primitive microloop (traced runs)
	trace  bool
	nproc  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("objbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all (rounds interleave across workloads)")
	seed := fs.Uint64("seed", 1, "seed of every op stream")
	seconds := fs.Float64("seconds", 22, "timed seconds per workload, split evenly over the rounds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	jsonOut := fs.String("json", "", "write the full report (every metric, every round, provenance) to this file")
	compare := fs.String("compare", "", "comma-separated reports of side A; the one argument lists side B's")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "objbench: -compare A1.json,A2.json,... B1.json,B2.json,...")
			return 2
		}
		return compareReports(strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","), stdout, stderr)
	}
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "objbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !(*seconds > 0):
		fmt.Fprintln(stderr, "objbench: -seconds must be > 0")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "objbench: -trace takes 0 or 1")
		return 2
	case *traceOut != "" && *trace != 1:
		fmt.Fprintln(stderr, "objbench: -trace-out needs -trace 1")
		return 2
	}
	var chosen []*spec
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			for i := range specs {
				chosen = append(chosen, &specs[i])
			}
			continue
		}
		s, ok := specByName(name)
		if !ok {
			fmt.Fprintf(stderr, "objbench: unknown workload %q (have %s)\n", name, strings.Join(specNames(), ", "))
			return 2
		}
		chosen = append(chosen, s)
	}

	cfg := newConfig(*seed, *seconds, rounds, *trace == 1)
	runtime.GOMAXPROCS(cfg.nproc)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(chosen, cfg.nproc, cfg.window, *traceOut != "")
	}
	rep, err := runBench(cfg, chosen, tr)
	if err != nil {
		fmt.Fprintln(stderr, "objbench:", err)
		return 2
	}
	if rep.Provenance.GitSHA == "unknown" {
		fmt.Fprintln(stderr, "objbench: warning: git SHA unknown (set GIT_SHA, or run from a git checkout's root)")
	}
	printReport(stdout, rep)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, "objbench:", err)
			return 2
		}
	}
	if *traceOut != "" {
		if err := tr.write(*traceOut, chosen); err != nil {
			fmt.Fprintln(stderr, "objbench: writing trace:", err)
			return 2
		}
	}
	line := resultLine(rep)
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "objbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !line.Correct || line.Failed > 0 {
		for _, r := range rep.Results {
			for _, v := range r.Violations {
				fmt.Fprintf(stderr, "objbench: %s: %s\n", r.Workload, v)
			}
			if r.Failed > 0 {
				fmt.Fprintf(stderr, "objbench: %s: %d ops returned an error other than empty or full\n", r.Workload, r.Failed)
			}
		}
		return 1
	}
	return 0
}

// newConfig splits seconds of measurement per workload over nrounds.
func newConfig(seed uint64, seconds float64, nrounds int, trace bool) config {
	cfg := config{seed: seed, rounds: nrounds, trace: trace, nproc: runtime.NumCPU()}
	cfg.window = time.Duration(seconds / float64(nrounds) * float64(time.Second))
	if trace {
		// A traced round measures three phases: Drive untraced, Drive
		// traced, and Direct.
		cfg.window /= 3
	}
	cfg.warmup = cfg.window / 16
	cfg.prims = cfg.window / 16
	return cfg
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// report is the -json document: provenance plus one result per
// workload, every metric with its per-round values.
type report struct {
	Provenance provenance `json:"provenance"`
	Results    []result   `json:"results"`
}

type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       uint64  `json:"seed"`
	Rounds     int     `json:"rounds"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Trace      bool    `json:"trace"`
}

type result struct {
	Workload   string      `json:"workload"`
	Backend    string      `json:"backend"`
	Workers    int         `json:"workers"`
	Correct    bool        `json:"correct"`
	Violations []string    `json:"violations,omitempty"`
	Attempted  uint64      `json:"attempted"`
	Failed     uint64      `json:"failed"`
	Metrics    []metricOut `json:"metrics"`
}

type metricOut struct {
	Name   string    `json:"name"`
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds"`
}

func collectProvenance(cfg config) provenance {
	return provenance{
		NProc:      cfg.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Seed:       cfg.seed,
		Rounds:     cfg.rounds,
		WindowS:    cfg.window.Seconds(),
		WarmupS:    cfg.warmup.Seconds(),
		Trace:      cfg.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is $GIT_SHA, else HEAD of a git checkout whose root is the
// working directory (the benchmark looks no further up), else unknown.
func gitSHA() string {
	if sha := os.Getenv("GIT_SHA"); sha != "" {
		return sha
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

func printReport(w io.Writer, rep report) {
	p := rep.Provenance
	fmt.Fprintf(w, "objbench: nproc=%d gomaxprocs=%d cpu=%q go=%s git=%s seed=%d rounds=%d window=%.3fs warmup=%.3fs trace=%t\n",
		p.NProc, p.GOMAXPROCS, p.CPUModel, p.GoVersion, p.GitSHA, p.Seed, p.Rounds, p.WindowS, p.WarmupS, p.Trace)
	for _, r := range rep.Results {
		s, _ := specByName(r.Workload)
		fmt.Fprintf(w, "\n%s: %s, %d worker(s), closed loop, correct=%t attempted=%d failed=%d\n",
			r.Workload, r.Backend, r.Workers, r.Correct, r.Attempted, r.Failed)
		fmt.Fprintf(w, "  why: %s\n", s.why)
		for _, m := range r.Metrics {
			var vals []string
			for _, v := range m.Rounds {
				vals = append(vals, fmt.Sprintf("%.6g", v))
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-10s rounds: %s\n", m.Name, m.Value, m.Unit, strings.Join(vals, " "))
		}
	}
}

func writeJSON(path string, rep report) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// resultLine is the closing JSON line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one. With several
// workloads each name is prefixed by "<workload>/".
func resultLine(rep report) line {
	l := line{Correct: true, Metrics: map[string]lineMetric{}}
	declared := endToEnd
	if rep.Provenance.Trace {
		declared = perLayer
	}
	for _, r := range rep.Results {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		for _, m := range r.Metrics {
			if !slices.ContainsFunc(declared, func(d metricDef) bool { return d.name == m.Name }) {
				continue
			}
			key := m.Name
			if len(rep.Results) > 1 {
				key = r.Workload + "/" + m.Name
			}
			l.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return l
}
