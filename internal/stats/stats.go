// Package stats provides the small set of estimators a discrete-event
// simulation needs: sample tallies, time-weighted averages, and rates, with
// batch-means confidence intervals for windowed rates.
//
// All estimators are plain values with no locking; the simulation kernel
// guarantees single-threaded access.
package stats

import (
	"fmt"
	"math"
)

// Tally accumulates independent observations (Welford's algorithm) and
// reports count, mean and variance.
type Tally struct {
	n        int64
	mean, m2 float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	t.n++
	d := x - t.mean
	t.mean += d / float64(t.n)
	t.m2 += d * (x - t.mean)
}

// N returns the number of observations.
func (t *Tally) N() int64 { return t.n }

// Mean returns the sample mean, or 0 with no observations.
func (t *Tally) Mean() float64 { return t.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (t *Tally) Var() float64 {
	if t.n < 2 {
		return 0
	}
	return t.m2 / float64(t.n-1)
}

// StdDev returns the sample standard deviation.
func (t *Tally) StdDev() float64 { return math.Sqrt(t.Var()) }

// Sum returns n*mean, the total of all observations.
func (t *Tally) Sum() float64 { return t.mean * float64(t.n) }

// Reset discards all observations.
func (t *Tally) Reset() { *t = Tally{} }

// CI95 returns the two-sided 95% Student-t confidence half-width around
// Mean, treating the observations as independent (appropriate for
// across-replication estimates, where each observation is one independent
// run). It returns +Inf with fewer than two observations.
func (t *Tally) CI95() float64 {
	if t.n < 2 {
		return math.Inf(1)
	}
	return TCrit95(t.n-1) * t.StdDev() / math.Sqrt(float64(t.n))
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom.
var tCrit95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for the given
// degrees of freedom: exact to three decimals for df <= 30, and a smooth
// monotone approximation decaying to the normal value 1.96 beyond that
// (error under 0.5%). Non-positive df returns +Inf.
func TCrit95(df int64) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= 30 {
		return tCrit95[df-1]
	}
	return 1.96 + (tCrit95[29]-1.96)*30/float64(df)
}

func (t *Tally) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g", t.n, t.Mean(), t.StdDev())
}

// TimeWeighted tracks a piecewise-constant value over simulated time and
// reports its time average (e.g. queue length, number of busy servers).
type TimeWeighted struct {
	value    float64
	lastT    float64
	integral float64
	started  bool
	startT   float64
	maxVal   float64
}

// Set records that the tracked value changed to v at time t. Times must be
// non-decreasing.
func (w *TimeWeighted) Set(v, t float64) {
	if !w.started {
		w.started = true
		w.startT = t
	} else {
		w.integral += w.value * (t - w.lastT)
	}
	w.value = v
	w.lastT = t
	if v > w.maxVal {
		w.maxVal = v
	}
}

// Adjust shifts the tracked value by delta at time t.
func (w *TimeWeighted) Adjust(delta, t float64) { w.Set(w.value+delta, t) }

// Value returns the current value.
func (w *TimeWeighted) Value() float64 { return w.value }

// Max returns the largest value seen.
func (w *TimeWeighted) Max() float64 { return w.maxVal }

// Mean returns the time average over [start, t].
func (w *TimeWeighted) Mean(t float64) float64 {
	if !w.started || t <= w.startT {
		return 0
	}
	return (w.integral + w.value*(t-w.lastT)) / (t - w.startT)
}

// Integral returns the accumulated value-time product up to time t.
func (w *TimeWeighted) Integral(t float64) float64 {
	if !w.started {
		return 0
	}
	return w.integral + w.value*(t-w.lastT)
}

// ResetAt discards history and restarts the integral at time t, keeping the
// current value. Use it to truncate a warm-up transient.
func (w *TimeWeighted) ResetAt(t float64) {
	if !w.started {
		w.started = true
		w.value = 0
	}
	w.integral = 0
	w.startT = t
	w.lastT = t
	w.maxVal = w.value
}

// Counter counts events and reports a rate per unit time.
type Counter struct {
	n      int64
	startT float64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Addn adds k to the counter.
func (c *Counter) Addn(k int64) { c.n += k }

// N returns the event count.
func (c *Counter) N() int64 { return c.n }

// Rate returns events per unit time over [start, t].
func (c *Counter) Rate(t float64) float64 {
	if t <= c.startT {
		return 0
	}
	return float64(c.n) / (t - c.startT)
}

// ResetAt zeroes the count and restarts the observation window at t.
func (c *Counter) ResetAt(t float64) { c.n = 0; c.startT = t }

// WindowedRate estimates an event rate with a batch-means confidence
// interval: simulated time is cut into fixed windows, each window's event
// count is one batch observation, and the windows' scatter gives the
// interval. Empty windows count as zero observations (they matter).
type WindowedRate struct {
	window float64
	start  float64
	cur    float64
	counts Tally
}

// NewWindowedRate starts an estimator at time t with the given window
// length (> 0).
func NewWindowedRate(window, t float64) *WindowedRate {
	if window <= 0 {
		panic("stats: window must be positive")
	}
	return &WindowedRate{window: window, start: t}
}

// advance closes every window that ended at or before time t.
func (w *WindowedRate) advance(t float64) {
	for t >= w.start+w.window {
		w.counts.Add(w.cur)
		w.cur = 0
		w.start += w.window
	}
}

// Add records one event at time t (non-decreasing).
func (w *WindowedRate) Add(t float64) {
	w.advance(t)
	w.cur++
}

// Rate returns the events-per-time estimate over complete windows at time
// t, plus the 95% half-width (normal critical value; +Inf with fewer than
// two complete windows).
func (w *WindowedRate) Rate(t float64) (rate, halfWidth float64) {
	w.advance(t)
	k := w.counts.N()
	if k == 0 {
		return 0, math.Inf(1)
	}
	rate = w.counts.Mean() / w.window
	if k < 2 {
		return rate, math.Inf(1)
	}
	halfWidth = 1.96 * w.counts.StdDev() / math.Sqrt(float64(k)) / w.window
	return rate, halfWidth
}
