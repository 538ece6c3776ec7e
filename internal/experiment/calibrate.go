package experiment

import (
	"fmt"
	"math"

	"carat/internal/core"
	"carat/internal/workload"
)

// CalibrationResult reports the outcome of fitting the model's deadlock
// adjusting factor to simulator measurements.
type CalibrationResult struct {
	// Adjust is the fitted DeadlockAdjust factor.
	Adjust float64
	// Error is the fit's mean relative TR-XPUT error across nodes and
	// transaction sizes (absolute value).
	Error float64
	// BaselineError is the same metric at Adjust = 1 (the paper's
	// first-order two-cycle approximation, uncalibrated).
	BaselineError float64
	// Evaluations counts model solutions performed.
	Evaluations int
}

// Calibrate implements the paper's Section 5.4.3 remark: "by observing the
// relative frequencies of more-than-two-cycle vs. two-cycle deadlocks in
// the experiments, we can determine an adjusting factor for each
// workload." Here the observation is a simulator run per transaction size;
// the adjusting factor is fitted by golden-section search on the mean
// relative throughput error.
//
// The fitted direction is workload-dependent: Pd couples to throughput
// both through the abort rate (more deadlocks waste more work) and through
// lock-wait chains (victims die sooner, so waits shorten). On the high-n
// MB8 points the fit lands below 1 and roughly halves the model's error;
// plugging the factor back in via Workload.DeadlockAdjust tightens the
// high-n predictions either way.
func Calibrate(mk func(int) workload.Workload, ns []int, opts SimOptions) (*CalibrationResult, error) {
	if len(ns) == 0 {
		return nil, fmt.Errorf("experiment: no transaction sizes to calibrate on")
	}
	// Measure once per n, on the grid runner.
	type point struct {
		wl workload.Workload
		x  [2]float64 // measured TR-XPUT per node, txn/s
	}
	opts.Replications = 1
	rcs, err := SweepReplicated(mk, ns, opts)
	if err != nil {
		return nil, err
	}
	points := make([]point, len(ns))
	for i, rc := range rcs {
		points[i].wl = mk(ns[i])
		for node := 0; node < 2; node++ {
			points[i].x[node] = rc.Reps[0].Nodes[node].TotalTxnThroughput
		}
	}

	evals := 0
	objective := func(adjust float64) (float64, error) {
		evals++
		var sum float64
		var cnt int
		for _, pt := range points {
			wl := pt.wl
			wl.DeadlockAdjust = adjust
			m, err := wl.Model()
			if err != nil {
				return 0, err
			}
			res, err := core.Solve(m)
			if err != nil {
				return 0, err
			}
			for node := 0; node < 2; node++ {
				if pt.x[node] <= 0 {
					continue
				}
				mo := res.Sites[node].TotalTxnThroughput * 1000
				sum += math.Abs(mo-pt.x[node]) / pt.x[node]
				cnt++
			}
		}
		if cnt == 0 {
			return 0, fmt.Errorf("experiment: no measured throughput to calibrate against")
		}
		return sum / float64(cnt), nil
	}

	baseline, err := objective(1)
	if err != nil {
		return nil, err
	}

	// Golden-section search on [0.25, 8] (log scale keeps the bracket
	// meaningful for a multiplicative factor).
	lo, hi := math.Log(0.25), math.Log(8.0)
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, err := objective(math.Exp(a))
	if err != nil {
		return nil, err
	}
	fb, err := objective(math.Exp(b))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 24 && hi-lo > 1e-3; i++ {
		if fa < fb {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			if fa, err = objective(math.Exp(a)); err != nil {
				return nil, err
			}
		} else {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			if fb, err = objective(math.Exp(b)); err != nil {
				return nil, err
			}
		}
	}
	best := math.Exp((lo + hi) / 2)
	fbest, err := objective(best)
	if err != nil {
		return nil, err
	}
	// The uncalibrated factor wins ties.
	if baseline <= fbest {
		best, fbest = 1, baseline
	}
	return &CalibrationResult{
		Adjust:        best,
		Error:         fbest,
		BaselineError: baseline,
		Evaluations:   evals,
	}, nil
}
