package experiment

import (
	"fmt"
	"math"

	"carat/internal/core"
	"carat/internal/rng"
	"carat/internal/stats"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// RepSeed returns the simulation seed for replication rep (0-based) of the
// sweep point with transaction size n.
//
// The scheme is fixed and documented so any replication can be reproduced
// in isolation with the single-run CLI:
//
//	rep 0:  the base seed itself, at every point — byte-identical to a
//	        single run (Run, and its golden tests).
//	rep r>0: rng.SeedStream(base, id) with stream id = n<<32 | r, so
//	        every (point, replication) pair owns a provably distinct
//	        substream label and streams are effectively uncorrelated.
func RepSeed(base uint64, n, rep int) uint64 {
	if rep == 0 {
		return base
	}
	return rng.SeedStream(base, uint64(n)<<32|uint64(rep))
}

// Estimate is an across-replication estimate of one scalar: the sample mean
// over independent runs with a two-sided 95% Student-t confidence
// half-width (+Inf when fewer than two replications ran).
type Estimate struct {
	Mean      float64
	HalfWidth float64
	Reps      int
}

// String formats the estimate as "mean ±half".
func (e Estimate) String() string {
	if math.IsInf(e.HalfWidth, 1) {
		return fmt.Sprintf("%.3f", e.Mean)
	}
	return fmt.Sprintf("%.3f ±%.3f", e.Mean, e.HalfWidth)
}

// RepComparison pairs the model's predictions with a set of independent
// simulation replications for one workload at one transaction size. The
// model side is deterministic and solved once; the measured side carries
// one Results per replication, in replication order.
type RepComparison struct {
	Workload string
	N        int
	Model    *core.Result
	// Seeds[r] is the seed replication r ran with (RepSeed(base, N, r)).
	Seeds []uint64
	// Reps[r] is replication r's measurement.
	Reps []testbed.Results
}

// Comparison returns the single-run view of replication rep, for code (and
// metrics) that consume the Comparison shape.
func (rc *RepComparison) Comparison(rep int) *Comparison {
	return &Comparison{Workload: rc.Workload, N: rc.N, Model: rc.Model, Measured: rc.Reps[rep]}
}

// First returns replication 0's view — byte-identical to what Run produces
// with the base seed.
func (rc *RepComparison) First() *Comparison { return rc.Comparison(0) }

// Estimate extracts one metric at one node from every replication and
// returns the model's value alongside the across-replication estimate.
func (rc *RepComparison) Estimate(metric Metric, node int) (model float64, est Estimate) {
	model, _ = metric.Get(rc.First(), node)
	return model, rc.estimate(func(c *Comparison) float64 {
		_, me := metric.Get(c, node)
		return me
	})
}

// estimate tallies one measured scalar across the replications.
func (rc *RepComparison) estimate(get func(c *Comparison) float64) Estimate {
	var t stats.Tally
	for rep := range rc.Reps {
		t.Add(get(rc.Comparison(rep)))
	}
	return Estimate{Mean: t.Mean(), HalfWidth: t.CI95(), Reps: int(t.N())}
}

// RunReplicated is the replication-aware Run: it solves the model once and
// runs opts.Replications independent simulations of the workload on a
// worker pool, each with its own environment and derived seed.
func RunReplicated(wl workload.Workload, opts SimOptions) (*RepComparison, error) {
	out, err := SweepReplicated(func(int) workload.Workload { return wl }, []int{wl.RequestsPerTxn}, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SweepReplicated runs a workload constructor over the transaction sizes,
// producing one comparison per point with opts.Replications independent
// simulations each (the paper sweeps n over {4, 8, 12, 16, 20}). The
// (point, replication) grid runs on runGrid: each cell builds its own
// workload, testbed.System and sim.Env and runs with the seed
// RepSeed(opts.Seed, n, rep), so the output is bit-identical for any worker
// count.
func SweepReplicated(mk func(n int) workload.Workload, ns []int, opts SimOptions) ([]*RepComparison, error) {
	reps := max(opts.Replications, 1)

	// The model side is deterministic: solve each point once, serially.
	out := make([]*RepComparison, len(ns))
	for i, n := range ns {
		wl := mk(n)
		m, err := wl.Model()
		if err != nil {
			return nil, fmt.Errorf("experiment: n=%d: building model: %w", n, err)
		}
		res, err := core.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("experiment: n=%d: solving model: %w", n, err)
		}
		rc := &RepComparison{
			Workload: wl.Name,
			N:        wl.RequestsPerTxn,
			Model:    res,
			Seeds:    make([]uint64, reps),
			Reps:     make([]testbed.Results, reps),
		}
		for r := 0; r < reps; r++ {
			rc.Seeds[r] = RepSeed(opts.Seed, n, r)
		}
		out[i] = rc
	}

	results, err := runGrid(len(ns)*reps, opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		rc, rep := out[i/reps], i%reps
		// A fresh workload per cell: constructors build their own parameter
		// maps, so concurrent simulations share nothing.
		return simulate(mk(rc.N), rc.Seeds[rep], opts, fmt.Sprintf("n=%d rep %d", rc.N, rep))
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		out[i/reps].Reps[i%reps] = res
	}
	return out, nil
}
