// The race detector's instrumentation allocates on its own, so allocation
// counts are checked only in normal builds.

//go:build !race

package stats

import "testing"

// TestHistogramAddGrowsInOneStep bounds Add's allocations: observations
// spread over a few hundred buckets extend the counts to each new top
// bucket in one step, not one append per bucket crossed.
func TestHistogramAddGrowsInOneStep(t *testing.T) {
	xs := []float64{3, 40, 7, 900, 120, 15, 2500, 60, 9, 300}
	allocs := testing.AllocsPerRun(100, func() {
		h := NewHistogram(1, 1.05)
		for _, x := range xs {
			h.Add(x)
		}
	})
	// The histogram itself plus one growth per new maximum bucket (3, 40,
	// 900, 2500).
	if allocs > 5 {
		t.Errorf("10 Adds allocated %v times, want at most 5", allocs)
	}
}
