package experiment

import (
	"fmt"

	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// PartitionPoint is one point of a partition sweep: the workload simulated
// with a scheduled network partition of the given duration under the given
// replication factor.
type PartitionPoint struct {
	// DurationMS is the partition's scheduled duration at this point (0 is
	// the partition-free baseline).
	DurationMS float64
	// Factor is the replication factor R (1 = unreplicated).
	Factor int
	// Results is the full simulator measurement.
	Results testbed.Results
	// TxnPerSec is the system-wide commit rate (goodput) in txn/s over the
	// whole window.
	TxnPerSec float64
	// GoodputFrac is TxnPerSec relative to the same factor's
	// partition-free (DurationMS = 0) point — the sweep's availability
	// measure. 1 when the sweep has no zero-duration baseline.
	GoodputFrac float64
	// MeanCommitLatencyMS is the commit-weighted mean response time across
	// all sites and transaction kinds, in ms.
	MeanCommitLatencyMS float64
	// System-wide partition effect counters.
	PartitionAborts int64
	PartitionShed   int64
	SuspectEvents   int64
	FailoverReads   int64
	// PartitionMS is the measured severed time inside the window.
	PartitionMS float64
}

// partitionHalves splits the first ceil(n/2) sites from the rest — the
// scheduled split every sweep point uses, so points differ only in how long
// the split lasts.
func partitionHalves(n int) [][]testbed.NodeID {
	var a, b []testbed.NodeID
	for s := 0; s < n; s++ {
		if s < (n+1)/2 {
			a = append(a, testbed.NodeID(s))
		} else {
			b = append(b, testbed.NodeID(s))
		}
	}
	return [][]testbed.NodeID{a, b}
}

// PartitionSweep simulates the workload under a scheduled half/half network
// partition of each duration at each replication factor, reporting goodput,
// partition-shed and -abort counts, and commit latency per point. The
// partition starts a quarter of the way into the measured window. Duration
// 0 runs the partition-free baseline for its factor (plan.Partitions
// cleared), against which GoodputFrac is computed. The base plan should
// carry finite LockWaitTimeoutMS and PrepareTimeoutMS so minority-side
// transactions abort instead of wedging for the whole split. Points run on
// runGrid with opts.Seed (common random numbers), bit-identical for any
// opts.Workers.
func PartitionSweep(wl workload.Workload, durations []float64, factors []int, plan testbed.FaultPlan, opts SimOptions) ([]PartitionPoint, error) {
	onset := opts.Warmup + 0.25*(opts.Duration-opts.Warmup)
	groups := partitionHalves(wl.NumNodes)
	nd := len(durations)
	results, err := runGrid(len(factors)*nd, opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		factor, dur := factors[i/nd], durations[i%nd]
		wl := wl
		p := plan
		p.Partitions = nil
		if dur > 0 {
			p.Partitions = []testbed.PartitionSchedule{
				{Groups: groups, AtMS: onset, HealAfterMS: dur},
			}
		}
		wl.Faults = &p
		wl.Replication = replicationPolicy(factor, repl.ReadOne)
		return simulate(wl, opts.Seed, opts, fmt.Sprintf("partition sweep R=%d dur=%v", factor, dur))
	})
	if err != nil {
		return nil, err
	}
	var out []PartitionPoint
	for f, factor := range factors {
		pts := make([]PartitionPoint, nd)
		base := 0.0
		for d, dur := range durations {
			pts[d] = partitionPoint(dur, factor, results[f*nd+d])
			if dur == 0 {
				base = pts[d].TxnPerSec
			}
		}
		// GoodputFrac against this factor's zero-duration baseline.
		for d := range pts {
			pts[d].GoodputFrac = 1
			if base > 0 {
				pts[d].GoodputFrac = pts[d].TxnPerSec / base
			}
		}
		out = append(out, pts...)
	}
	return out, nil
}

// partitionPoint aggregates one run's measurements into a sweep point.
func partitionPoint(dur float64, factor int, res testbed.Results) PartitionPoint {
	pt := PartitionPoint{
		DurationMS:  dur,
		Factor:      factor,
		Results:     res,
		PartitionMS: res.PartitionMS,
	}
	_, _, pt.MeanCommitLatencyMS = commitTotals(res)
	for _, n := range res.Nodes {
		pt.TxnPerSec += n.TotalTxnThroughput
		pt.PartitionAborts += n.PartitionAborts
		pt.PartitionShed += n.PartitionShed
		pt.SuspectEvents += n.SuspectEvents
		pt.FailoverReads += n.FailoverReads
	}
	return pt
}
