package experiment

import (
	"fmt"

	"carat/internal/core"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// CapacityPoint is the measurement at one offered-load grid point of a
// capacity sweep. All rates are system-wide transactions per second.
type CapacityPoint struct {
	// LambdaTPS is the configured offered rate; OfferedTPS is the rate the
	// arrival processes actually generated in the measurement window.
	LambdaTPS  float64
	OfferedTPS float64
	// CommittedTPS is the goodput; ShedTPS counts arrivals rejected by the
	// admission gate and AbandonedTPS transactions that exhausted their
	// retry budget.
	CommittedTPS float64
	ShedTPS      float64
	AbandonedTPS float64
	// Response-time percentiles over committed transactions, ms.
	MeanResponseMS float64
	P50ResponseMS  float64
	P95ResponseMS  float64
	// MeanInSystem is the time-average number of resident open
	// transactions, system-wide (Little's-law N).
	MeanInSystem float64
}

// CapacityResult is a full capacity sweep: the per-λ grid measurements plus
// the derived saturation summary.
type CapacityResult struct {
	Workload string
	Points   []CapacityPoint
	// PeakCommittedTPS is the largest committed throughput over the grid —
	// the measured capacity. KneeLambdaTPS is the smallest offered λ whose
	// committed throughput reaches 95% of the peak: the saturation knee.
	PeakCommittedTPS float64
	KneeLambdaTPS    float64
	// BottleneckBoundTPS is the closed model's asymptotic throughput bound
	// 1/D_max (Section 4): the workload's closed-population model is solved
	// once and X/U_max extrapolates its per-center demands to the
	// saturation of the busiest center. Zero when the workload cannot be
	// modeled (no closed users, or a non-2PL protocol).
	BottleneckBoundTPS float64
}

// Knee returns the grid point at the saturation knee.
func (cr *CapacityResult) Knee() CapacityPoint {
	for _, p := range cr.Points {
		if p.LambdaTPS == cr.KneeLambdaTPS {
			return p
		}
	}
	return CapacityPoint{}
}

// CapacitySweep measures an open-arrival workload's saturation behavior:
// it runs the simulator once per offered rate in lambdas (transactions per
// second, system-wide), collects offered/committed/shed throughput and
// response percentiles at each point, locates the saturation knee, and
// computes the closed model's MVA bottleneck bound for comparison.
//
// mk builds a fresh workload per run (nothing mutable is shared between
// concurrent simulations); the workload's Open config supplies the class
// mix and burst shape, and the sweep overrides its rate with each grid
// point (clearing any ramp — a capacity point is a constant-rate run). The
// (point, replication) grid runs on runGrid, bit-identical for any worker
// count: replication 0 of every point runs with opts.Seed itself, and
// replication r > 0 with RepSeed(opts.Seed, point, r).
func CapacitySweep(mk func() workload.Workload, lambdas []float64, opts SimOptions) (*CapacityResult, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("experiment: capacity sweep needs at least one rate")
	}
	reps := max(opts.Replications, 1)

	probe := mk()
	cr := &CapacityResult{Workload: probe.Name, Points: make([]CapacityPoint, len(lambdas))}
	var modelMix []testbed.OpenClass
	var modelShares []float64
	if len(probe.Users) > 0 {
		// The bound needs the closed model; a workload without closed users
		// (pure open mode) simply reports no bound. The same solve yields
		// the closed system's per-kind throughput mix and per-site
		// throughput shares, which become the sweep's defaults: 1/D_max is
		// the capacity for that operating point (cheap classes circulate
		// faster in a closed system, so its committed mix is not its
		// population mix, and asymmetric sites carry asymmetric load), and
		// offering any other mix or split would saturate the bottleneck at
		// a lower total rate than the bound predicts.
		if b, mix, shares, err := closedBoundAndMix(probe); err == nil {
			cr.BottleneckBoundTPS = b
			modelMix = mix
			modelShares = shares
		}
	}

	results, err := runGrid(len(lambdas)*reps, opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		point, rep := i/reps, i%reps
		wl := openAt(mk(), lambdas[point], modelMix, modelShares)
		return simulate(wl, RepSeed(opts.Seed, point, rep), opts, fmt.Sprintf("λ=%v rep %d", lambdas[point], rep))
	})
	if err != nil {
		return nil, err
	}

	for i, lambda := range lambdas {
		cr.Points[i] = capacityPoint(lambda, results[i*reps:(i+1)*reps])
		if cr.Points[i].CommittedTPS > cr.PeakCommittedTPS {
			cr.PeakCommittedTPS = cr.Points[i].CommittedTPS
		}
	}
	for _, p := range cr.Points {
		if p.CommittedTPS >= 0.95*cr.PeakCommittedTPS {
			cr.KneeLambdaTPS = p.LambdaTPS
			break
		}
	}
	return cr, nil
}

// openAt returns the workload configured for one constant-rate capacity
// point: open arrivals replace the closed terminals (Users only
// parameterize the model bound), the Open config's rate is set to lambda
// with any ramp cleared, and a workload without an explicit class mix or
// per-site split gets the closed model's throughput mix and shares.
func openAt(wl workload.Workload, lambda float64, modelMix []testbed.OpenClass, modelShares []float64) workload.Workload {
	oc := testbed.OpenConfig{RatePerSec: lambda}
	if wl.Open != nil {
		oc.Burst = wl.Open.Burst
		oc.Classes = wl.Open.Classes
	}
	if len(oc.Classes) == 0 {
		oc.Classes = modelMix
	}
	if len(modelShares) > 0 {
		oc.RatePerSec = 0
		oc.PerSiteRatePerSec = make([]float64, len(modelShares))
		for i, sh := range modelShares {
			oc.PerSiteRatePerSec[i] = lambda * sh
		}
	}
	wl.Open = &oc
	wl.Users = nil
	return wl
}

// capacityPoint aggregates one grid point's replications into the reported
// measurement (means across replications; response percentiles are
// commit-weighted across sites within each replication).
func capacityPoint(lambda float64, reps []testbed.Results) CapacityPoint {
	pt := CapacityPoint{LambdaTPS: lambda}
	for _, res := range reps {
		var offered, shed, abandoned, inSystem float64
		var respMean, respP50, respP95, commits float64
		for _, n := range res.Nodes {
			offered += n.OpenOfferedPerSec
			inSystem += n.OpenMeanInSystem
			if res.Window > 0 {
				shed += float64(n.ShedArrivals) / res.Window * 1000
				// Sum the causes as integers: a float sum in map order
				// would differ in its last bits from call to call.
				var a int64
				for _, c := range n.Abandoned {
					a += c
				}
				abandoned += float64(a) / res.Window * 1000
			}
			var c float64
			for _, k := range n.Commits {
				c += float64(k)
			}
			commits += c
			respMean += n.OpenMeanResponseMS * c
			respP50 += n.OpenP50ResponseMS * c
			respP95 += n.OpenP95ResponseMS * c
		}
		pt.OfferedTPS += offered
		pt.CommittedTPS += goodput(res)
		pt.ShedTPS += shed
		pt.AbandonedTPS += abandoned
		pt.MeanInSystem += inSystem
		if commits > 0 {
			pt.MeanResponseMS += respMean / commits
			pt.P50ResponseMS += respP50 / commits
			pt.P95ResponseMS += respP95 / commits
		}
	}
	n := float64(len(reps))
	pt.OfferedTPS /= n
	pt.CommittedTPS /= n
	pt.ShedTPS /= n
	pt.AbandonedTPS /= n
	pt.MeanInSystem /= n
	pt.MeanResponseMS /= n
	pt.P50ResponseMS /= n
	pt.P95ResponseMS /= n
	return pt
}

// closedBoundAndMix solves the workload's closed model once and derives
// two things from the solution:
//
//   - The asymptotic throughput bound 1/D_max (Section 4), in transactions
//     per second. Utilizations are linear in throughput at fixed
//     per-center demands (U_k = X·D_k), so X/U_max is exactly the
//     throughput at which the busiest center saturates — the capacity any
//     open arrival process is up against.
//   - The closed system's per-kind throughput mix as open class weights,
//     and its per-site throughput shares (each site's fraction of total
//     commits) as the arrival split across sites.
func closedBoundAndMix(wl workload.Workload) (float64, []testbed.OpenClass, []float64, error) {
	m, err := wl.Model()
	if err != nil {
		return 0, nil, nil, err
	}
	res, err := core.Solve(m)
	if err != nil {
		return 0, nil, nil, err
	}
	kindOf := map[core.Type]testbed.TxnKind{
		core.LRO: testbed.LRO, core.LU: testbed.LU,
		core.DROC: testbed.DRO, core.DUC: testbed.DU,
	}
	weight := map[testbed.TxnKind]float64{}
	shares := make([]float64, len(res.Sites))
	var x, umax float64
	for i, s := range res.Sites {
		x += s.TotalTxnThroughput
		shares[i] = s.TotalTxnThroughput
		if s.CPUUtilization > umax {
			umax = s.CPUUtilization
		}
		if s.DiskUtilization > umax {
			umax = s.DiskUtilization
		}
		if m.Sites[i].SeparateLog && s.LogDiskUtilization > umax {
			umax = s.LogDiskUtilization
		}
		for ty, ch := range s.Chains {
			if k, ok := kindOf[ty]; ok {
				weight[k] += ch.Throughput
			}
		}
	}
	if umax <= 0 || x <= 0 {
		return 0, nil, nil, fmt.Errorf("experiment: model reports no utilization")
	}
	var mix []testbed.OpenClass
	for _, k := range testbed.TxnKinds {
		if weight[k] > 0 {
			mix = append(mix, testbed.OpenClass{Kind: k, Weight: weight[k]})
		}
	}
	for i := range shares {
		shares[i] /= x
	}
	return x / umax * 1000, mix, shares, nil
}
