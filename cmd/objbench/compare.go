package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// median is the middle value (the mean of the two middle values for an
// even count), 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile with the exclusive
// method of Python's statistics.quantiles(vs, n=4), the spread rule
// the acceptance check uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// compareReports prints, per (workload, metric), each side's median and
// quartiles over its reports, one row per side, and a verdict:
//
//   - improved: B beats A in at least 9 of 10 index-paired runs and
//     the medians differ by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: either side's spread exceeds the bound, unless every
//     B run beats every A run;
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound and get only the improved rule.
func compareReports(pathsA, pathsB []string, stdout, stderr io.Writer) int {
	a, err := loadReports(pathsA)
	if err != nil {
		fmt.Fprintln(stderr, "objbench:", err)
		return 2
	}
	b, err := loadReports(pathsB)
	if err != nil {
		fmt.Fprintln(stderr, "objbench:", err)
		return 2
	}
	printComparison(stdout, a, b)
	return 0
}

type key struct{ workload, metric string }

// loadReports gathers each (workload, metric) value over the reports,
// one value per report.
func loadReports(paths []string) (map[key][]float64, error) {
	vals := map[key][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rep.Results {
			for _, m := range r.Metrics {
				k := key{r.Workload, m.Name}
				vals[k] = append(vals[k], m.Value)
			}
		}
	}
	return vals, nil
}

func printComparison(w io.Writer, a, b map[key][]float64) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tside\truns\tq1\tmedian\tq3\tverdict\t")
	for _, s := range specs {
		for _, list := range [][]metricDef{endToEnd, untracedExtra, perLayer} {
			for _, d := range list {
				k := key{s.name, d.name}
				va, vb := a[k], b[k]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				q1, q3 := quartiles(va)
				fmt.Fprintf(tw, "%s\t%s\tA\t%d\t%.6g\t%.6g\t%.6g\t\t\n", s.name, d.name, len(va), q1, median(va), q3)
				q1, q3 = quartiles(vb)
				fmt.Fprintf(tw, "\t\tB\t%d\t%.6g\t%.6g\t%.6g\t%s\t\n", len(vb), q1, median(vb), q3, verdict(d, va, vb))
			}
		}
	}
	tw.Flush()
}

// verdict applies the comparison rules above to one (workload, metric).
func verdict(d metricDef, a, b []float64) string {
	better := func(x, y float64) bool { // x reads better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	if better(mb, ma) && 10*wins >= 9*pairs && math.Abs(mb-ma) > q3-q1 {
		return "improved"
	}
	if d.bound == 0 {
		return "ungated"
	}
	worse := ratio(mb-ma, ma)
	if d.better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case worse > d.bound:
		return fmt.Sprintf("regressed (%+.1f%%, bound %.0f%%)", 100*worse, 100*d.bound)
	case (spread(a) > d.bound || spread(b) > d.bound) && !allBetter:
		return fmt.Sprintf("unresolved (spread %.1f%%/%.1f%%, bound %.0f%%)", 100*spread(a), 100*spread(b), 100*d.bound)
	default:
		return fmt.Sprintf("unchanged (%+.1f%%, bound %.0f%%)", 100*worse, 100*d.bound)
	}
}
