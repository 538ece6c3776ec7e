package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTallyBasics(t *testing.T) {
	var ta Tally
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		ta.Add(x)
	}
	if ta.N() != 8 {
		t.Fatalf("N = %d", ta.N())
	}
	if ta.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", ta.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if got, want := ta.Var(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Var = %v, want %v", got, want)
	}
	if ta.Sum() != 40 {
		t.Fatalf("Sum = %v, want 40", ta.Sum())
	}
}

func TestTallyEmptyAndSingle(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.Var() != 0 || ta.StdDev() != 0 {
		t.Fatal("empty tally must report zeros")
	}
	ta.Add(3)
	if ta.Var() != 0 {
		t.Fatal("single observation variance must be 0")
	}
	if ta.Mean() != 3 {
		t.Fatal("single observation mean")
	}
}

func TestTallyMeanWithinBounds(t *testing.T) {
	// Property: mean is always within [min, max].
	f := func(xs []float64) bool {
		var ta Tally
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue // Welford's m2 update overflows near MaxFloat64
			}
			ta.Add(x)
			lo, hi = min(lo, x), max(hi, x)
		}
		if ta.N() == 0 {
			return true
		}
		return ta.Mean() >= lo-1e-9*math.Abs(lo) && ta.Mean() <= hi+1e-9*math.Abs(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Set(2, 10) // value 0 over [0,10]
	w.Set(4, 20) // value 2 over [10,20]
	// value 4 over [20,30]
	if got := w.Mean(30); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Mean = %v, want 2 ((0*10+2*10+4*10)/30)", got)
	}
	if w.Max() != 4 {
		t.Fatalf("Max = %v, want 4", w.Max())
	}
	if got := w.Integral(30); got != 60 {
		t.Fatalf("Integral = %v, want 60", got)
	}
}

func TestTimeWeightedAdjustAndReset(t *testing.T) {
	var w TimeWeighted
	w.Set(1, 0)
	w.Adjust(2, 5) // 3 from t=5
	if w.Value() != 3 {
		t.Fatalf("Value = %v", w.Value())
	}
	w.ResetAt(10)
	// After reset the integral restarts but the value persists.
	if got := w.Mean(20); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Mean after reset = %v, want 3", got)
	}
}

func TestTimeWeightedZeroWindow(t *testing.T) {
	var w TimeWeighted
	w.Set(5, 3)
	if w.Mean(3) != 0 {
		t.Fatal("zero-length window must report 0")
	}
}

func TestCounterRate(t *testing.T) {
	var c Counter
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.N() != 10 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Rate(5); got != 2 {
		t.Fatalf("Rate = %v, want 2", got)
	}
	c.ResetAt(5)
	c.Addn(4)
	if got := c.Rate(7); got != 2 {
		t.Fatalf("Rate after reset = %v, want 2", got)
	}
}

func TestWindowedRateDeterministicStream(t *testing.T) {
	// One event every 10 time units, offset to avoid window boundaries:
	// every 100-unit window counts exactly 10, so the rate is 0.1 with
	// zero half-width.
	w := NewWindowedRate(100, 0)
	for i := 0; i < 1000; i++ {
		w.Add(float64(i*10) + 5)
	}
	rate, half := w.Rate(10_000)
	if math.Abs(rate-0.1) > 1e-12 {
		t.Fatalf("rate = %v, want 0.1", rate)
	}
	if half > 1e-12 {
		t.Fatalf("half-width = %v, want 0 for a deterministic stream", half)
	}
	if w.counts.N() < 90 {
		t.Fatalf("windows = %d", w.counts.N())
	}
}

func TestWindowedRateCountsEmptyWindows(t *testing.T) {
	// Ten events all in the first window, then silence: the rate over ten
	// windows is 1 event per window-length, with wide spread.
	w := NewWindowedRate(10, 0)
	for i := 0; i < 10; i++ {
		w.Add(0.5)
	}
	rate, half := w.Rate(100)
	if math.Abs(rate-0.1) > 1e-12 {
		t.Fatalf("rate = %v, want 0.1 (10 events / 100 time)", rate)
	}
	if half <= 0 || math.IsInf(half, 1) {
		t.Fatalf("half-width = %v, want finite positive", half)
	}
}

func TestWindowedRateFewWindows(t *testing.T) {
	w := NewWindowedRate(100, 0)
	w.Add(5)
	if _, half := w.Rate(50); !math.IsInf(half, 1) {
		t.Fatal("no complete window must give infinite half-width")
	}
}

func TestWindowedRatePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindowedRate(0, 0)
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int64
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {9, 2.262}, {30, 2.042},
	}
	for _, c := range cases {
		if got := TCrit95(c.df); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(TCrit95(0), 1) || !math.IsInf(TCrit95(-3), 1) {
		t.Error("non-positive df must give +Inf")
	}
	// Beyond the table: monotone decreasing toward the normal 1.96.
	prev := TCrit95(30)
	for _, df := range []int64{31, 40, 60, 120, 1000, 1 << 30} {
		got := TCrit95(df)
		if got >= prev || got < 1.96 {
			t.Fatalf("TCrit95(%d) = %v, want in [1.96, %v)", df, got, prev)
		}
		prev = got
	}
	// 120 df is 1.980 in the standard table; the approximation stays close.
	if got := TCrit95(120); math.Abs(got-1.980) > 0.01 {
		t.Errorf("TCrit95(120) = %v, want ~1.980", got)
	}
}

func TestTallyCI95(t *testing.T) {
	var ta Tally
	if !math.IsInf(ta.CI95(), 1) {
		t.Fatal("empty tally must give +Inf half-width")
	}
	ta.Add(5)
	if !math.IsInf(ta.CI95(), 1) {
		t.Fatal("single observation must give +Inf half-width")
	}
	// {2,4,6}: mean 4, sample sd 2, se 2/sqrt(3), t(2) = 4.303.
	var tb Tally
	for _, x := range []float64{2, 4, 6} {
		tb.Add(x)
	}
	want := 4.303 * 2 / math.Sqrt(3)
	if got := tb.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	// Identical observations: zero-width interval.
	var tc Tally
	for i := 0; i < 5; i++ {
		tc.Add(3.5)
	}
	if got := tc.CI95(); got != 0 {
		t.Fatalf("constant observations CI95 = %v, want 0", got)
	}
}
