package workload

import (
	"math"
	"testing"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(1.1, 64)
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if v := z.Next(r); v < 0 || v >= 64 {
			t.Fatalf("Next = %d, outside [0, 64)", v)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(1.2, 128)
	a, b := NewRNG(17), NewRNG(17)
	for i := 0; i < 1000; i++ {
		if z.Next(a) != z.Next(b) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 0 must dominate: with s=1.2 over 1024 ranks the hottest
	// key draws well over 10% of the mass, and the top 8 ranks a
	// majority — while a uniform draw would give 8/1024 < 1%.
	z := NewZipf(1.2, 1024)
	r := NewRNG(23)
	const n = 100000
	counts := make([]int, 1024)
	for i := 0; i < n; i++ {
		counts[z.Next(r)]++
	}
	if counts[0] < n/10 {
		t.Fatalf("rank 0 drew %d of %d, want > %d", counts[0], n, n/10)
	}
	top8 := 0
	for _, c := range counts[:8] {
		top8 += c
	}
	if top8 < n/2 {
		t.Fatalf("top 8 ranks drew %d of %d, want a majority", top8, n)
	}
	// Monotone-ish head: rank 0 beats rank 1 beats rank 7.
	if counts[0] <= counts[1] || counts[1] <= counts[7] {
		t.Fatalf("head not decreasing: %v", counts[:8])
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(1.1, 0) },
		func() { NewZipf(0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad NewZipf args did not panic")
				}
			}()
			f()
		}()
	}
}

// searchRank is the pre-guide sampler kept as the reference: a binary
// search for the least rank whose CDF exceeds u over the whole table.
func searchRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfMatches checks the guided inversion against searchRank at u.
func zipfMatches(t *testing.T, z *Zipf, s float64, u float64) {
	t.Helper()
	if got, want := z.rank(u), searchRank(z.cdf, u); got != want {
		t.Fatalf("Zipf(%v, %d) at u=%v (bits %#x): guide gives %d, search gives %d",
			s, z.N(), u, math.Float64bits(u), got, want)
	}
}

// TestZipfGuideMatchesSearch pins that the guide table only speeds the
// inversion up: every draw equals the full-range binary search's, so
// every seeded op stream built on Zipf is unchanged. Besides RNG
// draws it probes each CDF value, its float neighbours and the cell
// edges, where an off-by-one in the guide would show first.
func TestZipfGuideMatchesSearch(t *testing.T) {
	const draws = 200_000
	for _, s := range []float64{0.5, 0.99, 1.1, 2, 4} {
		for _, n := range []int{1, 2, 3, 7, 100, 4096, 65536} {
			z := NewZipf(s, n)
			r, ref := NewRNG(uint64(n)), NewRNG(uint64(n))
			for i := 0; i < draws; i++ {
				if got, want := z.Next(r), searchRank(z.cdf, ref.Float64()); got != want {
					t.Fatalf("Zipf(%v, %d) draw %d: guide gives %d, search gives %d", s, n, i, got, want)
				}
			}
			edges := []float64{0, math.Nextafter(1, 0)}
			for _, c := range z.cdf {
				edges = append(edges, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
			}
			m := len(z.guide) - 1
			for j := 0; j <= m; j++ {
				c := float64(j) / float64(m)
				edges = append(edges, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
			}
			for _, u := range edges {
				if u >= 0 && u < 1 {
					zipfMatches(t, z, s, u)
				}
			}
		}
	}
}

// FuzzZipfMatchesSearch drives the same equivalence from fuzzed skews,
// sizes up to 2^16 and raw u bits: once through the RNG's 53-bit map
// (whose top, bits → 1, is the largest u a draw can produce) and once
// as the float those bits spell, when it lies in [0, 1).
func FuzzZipfMatchesSearch(f *testing.F) {
	f.Add(1.1, uint16(4095), uint64(0))
	f.Add(0.5, uint16(0), ^uint64(0))
	f.Add(4.0, uint16(65535), uint64(1)<<63)
	f.Add(0.99, uint16(6), math.Float64bits(math.Nextafter(1, 0)))
	f.Fuzz(func(t *testing.T, s float64, n uint16, bits uint64) {
		if !(s >= 0.01 && s <= 64) {
			t.Skip()
		}
		z := NewZipf(s, int(n)+1)
		zipfMatches(t, z, s, float64(bits>>11)/(1<<53))
		if u := math.Float64frombits(bits); u >= 0 && u < 1 {
			zipfMatches(t, z, s, u)
		}
		for _, c := range z.cdf[:min(len(z.cdf), 64)] {
			zipfMatches(t, z, s, c)
		}
	})
}

// BenchmarkZipfNext times one draw at the shape of objbench's set-write
// workload: Zipf(1.1) over 4,096 keys.
func BenchmarkZipfNext(b *testing.B) {
	z, r := NewZipf(1.1, 4096), NewRNG(1)
	b.ReportAllocs()
	for b.Loop() {
		z.Next(r)
	}
}
