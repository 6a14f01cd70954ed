package workload

import "math"

// Zipf draws ranks from a Zipf(s) distribution over [0, n): rank r is
// drawn with probability proportional to 1/(r+1)^s, so rank 0 is the
// hottest key. The sampler precomputes the CDF once and inverts it
// per draw, so sampling is deterministic for a given RNG state and
// allocation-free after construction.
//
// The inversion is a guide table (Chen & Asau, 1974) in front of a
// binary search: the unit interval is cut into m = max(n/4, 1) equal
// cells, and guide[j] is the first rank whose CDF lands in cell j or
// later under the same u → cell map that Next uses, so the rank of
// every u in cell j lies in [guide[j], guide[j+1]] and the search runs
// over that window only. Because both bounds are derived from the
// draw's own cell map, the result is exactly the full-range search's
// for every u — the guide changes the cost of a draw, never its value.
type Zipf struct {
	cdf   []float64
	guide []int32 // m+1 entries; guide[m] = n-1
}

// NewZipf returns a sampler over [0, n) with skew s > 0 (s around
// 1 gives the classic hot-key shape; larger s concentrates harder).
func NewZipf(s float64, n int) *Zipf {
	if n <= 0 {
		panic("workload: NewZipf needs n > 0")
	}
	if s <= 0 {
		panic("workload: NewZipf needs s > 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	z := &Zipf{cdf: cdf, guide: make([]int32, max(n/4, 1)+1)}
	j := 0
	for r, c := range cdf {
		for k := z.cell(c); j <= k; j++ {
			z.guide[j] = int32(r)
		}
	}
	for ; j < len(z.guide); j++ {
		z.guide[j] = int32(n - 1)
	}
	return z
}

// N returns the rank-space size the sampler was built for.
func (z *Zipf) N() int { return len(z.cdf) }

// cell maps a probability to its guide cell, clamped to [0, m-1]. It
// is monotone in p, which is all the guide's bounds rely on.
func (z *Zipf) cell(p float64) int {
	m := len(z.guide) - 1
	return min(int(p*float64(m)), m-1)
}

// Next draws the next rank using r. The sampler itself is read-only
// after construction, so one Zipf may serve many goroutines as long
// as each supplies its own RNG.
func (z *Zipf) Next(r *RNG) int { return z.rank(r.Float64()) }

// rank inverts the CDF at u in [0, 1): the least rank whose CDF
// exceeds u (n-1 if none), searched within u's guide cell.
func (z *Zipf) rank(u float64) int {
	j := z.cell(u)
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
