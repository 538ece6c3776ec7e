package experiment

import (
	"fmt"

	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// ReplicationPoint is one point of a replication sweep: the workload
// simulated under a fixed fault plan with the given replication factor and
// read policy.
type ReplicationPoint struct {
	// Factor is the replication factor R at this point (1 is the unreplicated
	// baseline — its simulation path is byte-identical to a run with no
	// replication policy at all).
	Factor int
	// ReadMode names the read policy ("one" or "quorum"; "one" at R=1, where
	// the policy is irrelevant).
	ReadMode string
	// Results is the full simulator measurement.
	Results testbed.Results
	// TxnPerSec is the system-wide commit rate (goodput) in txn/s over the
	// whole window.
	TxnPerSec float64
	// DegradedTxnPerSec is the commit rate during the degraded fraction of
	// the window (at least one site down); 0 when no site was ever down.
	DegradedTxnPerSec float64
	// Availability is the degraded-goodput ratio DegradedTxnPerSec/TxnPerSec:
	// the fraction of normal throughput the system sustains while a site is
	// down (1 when no outage occurred). Unlike per-site uptime, this is
	// sensitive to replication: failover reads keep commits flowing through
	// an outage.
	Availability float64
	// MeanCommitLatencyMS is the commit-weighted mean response time across
	// all sites and transaction kinds, in ms.
	MeanCommitLatencyMS float64
	// System-wide replication traffic counters.
	FailoverReads  int64
	ReplicaApplies int64
	QuorumReads    int64
}

// ReplicationSweep simulates the workload under a fixed fault plan at each
// replication factor × read policy, reporting availability, goodput and
// commit latency per point. Factor 1 points run the unreplicated baseline
// (read policy irrelevant, reported as "one") and are emitted once per
// factor regardless of how many read modes are requested, so the baseline
// appears exactly once. A nil or empty reads slice defaults to read-one.
// Points run on runGrid with opts.Seed (common random numbers),
// bit-identical for any opts.Workers.
func ReplicationSweep(wl workload.Workload, factors []int, reads []repl.ReadMode, plan testbed.FaultPlan, opts SimOptions) ([]ReplicationPoint, error) {
	if len(reads) == 0 {
		reads = []repl.ReadMode{repl.ReadOne}
	}
	type cell struct {
		factor int
		mode   repl.ReadMode
	}
	var cells []cell
	for _, factor := range factors {
		modes := reads
		if factor <= 1 {
			modes = []repl.ReadMode{repl.ReadOne}
		}
		for _, mode := range modes {
			cells = append(cells, cell{factor: factor, mode: mode})
		}
	}
	results, err := runGrid(len(cells), opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		cl := cells[i]
		wl := wl
		p := plan
		wl.Faults = &p
		wl.Replication = replicationPolicy(cl.factor, cl.mode)
		return simulate(wl, opts.Seed, opts, fmt.Sprintf("replication sweep R=%d read=%v", cl.factor, cl.mode))
	})
	if err != nil {
		return nil, err
	}
	var out []ReplicationPoint
	for i, cl := range cells {
		out = append(out, replicationPoint(cl.factor, cl.mode, results[i]))
	}
	return out, nil
}

// replicationPolicy is the policy a sweep point runs under: factor copies
// with the read mode, or no replication at all for factor 1.
func replicationPolicy(factor int, mode repl.ReadMode) repl.Policy {
	if factor > 1 {
		return repl.Policy{Factor: factor, Read: mode}
	}
	return repl.Policy{}
}

// replicationPoint aggregates one run's measurements into a sweep point.
func replicationPoint(factor int, mode repl.ReadMode, res testbed.Results) ReplicationPoint {
	pt := ReplicationPoint{Factor: factor, ReadMode: mode.String(), Results: res}
	_, _, pt.MeanCommitLatencyMS = commitTotals(res)
	var degraded int64
	for _, n := range res.Nodes {
		pt.TxnPerSec += n.TotalTxnThroughput
		pt.FailoverReads += n.FailoverReads
		pt.ReplicaApplies += n.ReplicaApplies
		pt.QuorumReads += n.QuorumReads
		degraded += n.DegradedCommits
	}
	pt.Availability = 1
	if res.DegradedMS > 0 {
		pt.DegradedTxnPerSec = float64(degraded) / res.DegradedMS * 1000
		if pt.TxnPerSec > 0 {
			pt.Availability = pt.DegradedTxnPerSec / pt.TxnPerSec
		} else {
			pt.Availability = 0
		}
	}
	return pt
}
