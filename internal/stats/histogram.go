package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates observations into geometrically spaced buckets and
// answers quantile queries — the simulator's percentile estimator for
// response times. Buckets grow by a fixed ratio, so relative error is
// bounded by the ratio regardless of scale.
type Histogram struct {
	base    float64 // lower edge of the first bucket
	ratio   float64 // bucket growth factor (> 1)
	counts  []int64
	n       int64
	underlo int64 // observations below base
	sum     float64
	max     float64
}

// NewHistogram creates a histogram covering [base, ∞) with buckets growing
// by ratio (e.g. base=1, ratio=1.1 gives ~5% quantile error).
func NewHistogram(base, ratio float64) *Histogram {
	if base <= 0 || ratio <= 1 {
		panic("stats: histogram needs base > 0 and ratio > 1")
	}
	return &Histogram{base: base, ratio: ratio}
}

// bucketOf returns the bucket index for x >= base.
func (h *Histogram) bucketOf(x float64) int {
	return int(math.Log(x/h.base) / math.Log(h.ratio))
}

// lowerEdge returns bucket i's lower edge.
func (h *Histogram) lowerEdge(i int) float64 {
	return h.base * math.Pow(h.ratio, float64(i))
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	if x > h.max {
		h.max = x
	}
	if x < h.base {
		h.underlo++
		return
	}
	i := h.bucketOf(x)
	h.extend(i + 1)
	h.counts[i]++
}

// extend grows counts to at least n zeroed buckets in one step.
func (h *Histogram) extend(n int) {
	if k := n - len(h.counts); k > 0 {
		h.counts = append(h.counts, make([]int64, k)...)
	}
}

// N returns the observation count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the exact sample mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an estimate of the q-quantile (0 < q <= 1), accurate to
// one bucket width (a relative error of at most ratio-1). It returns 0
// with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	cum := h.underlo
	if cum >= target {
		return h.base
	}
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Midpoint of the bucket, geometrically.
			return h.lowerEdge(i) * math.Sqrt(h.ratio)
		}
	}
	return h.max
}

// Merge folds another histogram's observations into h, as if every
// observation behind o had been Added to h directly — the aggregation step
// for histograms filled by parallel replications. Because both histograms
// share the same bucket edges, merging loses nothing: quantile estimates
// keep the one-bucket error bound of a single histogram. Merging histograms
// with different base or ratio would misfile every count, so that panics.
func (h *Histogram) Merge(o *Histogram) {
	if o.base != h.base || o.ratio != h.ratio {
		panic("stats: merging histograms with different bucket geometry")
	}
	h.extend(len(o.counts))
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.underlo += o.underlo
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.counts = h.counts[:0]
	h.n, h.underlo = 0, 0
	h.sum, h.max = 0, 0
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g max=%.4g",
		h.n, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.max)
}

// QuantileOfSorted returns the q-quantile of a sorted sample exactly
// (nearest-rank); a reference implementation for tests and small samples.
func QuantileOfSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(sorted) {
		panic("stats: sample not sorted")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}
