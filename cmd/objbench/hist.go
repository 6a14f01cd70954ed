package main

import "math/bits"

// The latency histogram is log-linear: values below 2^subBits ns get a
// bucket each, and every octave above is split into 2^subBits equal
// sub-buckets, so a bucket's width is at most 1/64 of its lower edge
// (≤1.6% relative error). Each worker records into its own histogram
// with plain stores; the round merges them after the workers stop.
const (
	subBits  = 6
	subCount = 1 << subBits
	nBuckets = (64 - subBits + 1) * subCount
)

type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-subBits+1)*subCount + int(v>>(e-subBits)&(subCount-1))
}

// bucketRange returns bucket i's lower edge and width.
func bucketRange(i int) (low, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	e := i/subCount + subBits - 1
	return 1<<e + uint64(i%subCount)<<(e-subBits), 1 << (e - subBits)
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (q in [0, 1]): the sample of rank
// ceil(q·n), interpolated linearly inside its bucket by its position
// among the bucket's samples. The result lies in the same bucket as the
// exact order statistic, so it is off by less than one bucket width.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	rank = max(rank, 1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		low, width := bucketRange(i)
		return float64(low) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
	}
	panic("objbench: histogram counts do not sum to n")
}
