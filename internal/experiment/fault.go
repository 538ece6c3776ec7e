package experiment

import (
	"fmt"

	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// FaultPoint is one cell of a fault sweep: the workload simulated under one
// fault plan and replication policy. FailureSweep varies MTTFMS,
// PartitionSweep DurationMS and Factor, ReplicationSweep Factor and
// ReadMode; the other labels stay zero or at the workload's own policy.
type FaultPoint struct {
	// MTTFMS is the per-site mean time to failure (0: no random crashes).
	MTTFMS float64
	// DurationMS is the scheduled partition's duration (0: no partition).
	DurationMS float64
	// Factor is the replication factor R (1 = unreplicated).
	Factor int
	// ReadMode names the read policy: "one" or "quorum".
	ReadMode string
	// Results is the full simulator measurement.
	Results testbed.Results
	// TxnPerSec is the system-wide commit rate (goodput) in txn/s.
	TxnPerSec float64
	// GoodputFrac is TxnPerSec relative to the cell of the same Factor and
	// ReadMode whose MTTFMS and DurationMS are both 0: the fault-free
	// baseline of a failure or partition sweep. It is 1 when there is no
	// such cell or it committed nothing, and in a replication sweep, where
	// every cell is its own baseline.
	GoodputFrac float64
	// Uptime is the mean per-site availability over the window.
	Uptime float64
	// DegradedTxnPerSec is the commit rate during the degraded fraction of
	// the window (at least one site down); 0 when no site was ever down.
	DegradedTxnPerSec float64
	// DegradedGoodputFrac is DegradedTxnPerSec/TxnPerSec: the fraction of
	// normal throughput the system sustains while a site is down (1 when no
	// outage occurred). Unlike Uptime, it is sensitive to replication:
	// failover reads keep commits flowing through an outage.
	DegradedGoodputFrac float64
	// MeanCommitLatencyMS is the commit-weighted mean response time across
	// all sites and transaction kinds, in ms.
	MeanCommitLatencyMS float64
	// System-wide crash, partition and replication counters.
	Crashes          int64
	CrashAborts      int64
	TimeoutAborts    int64
	InDoubtCommitted int64
	InDoubtAborted   int64
	PartitionAborts  int64
	PartitionShed    int64
	SuspectEvents    int64
	FailoverReads    int64
	ReplicaApplies   int64
	QuorumReads      int64
}

// faultCell is one fault-sweep cell: the plan and replication policy the
// workload runs under, and the labels its point carries.
type faultCell struct {
	plan   testbed.FaultPlan
	policy repl.Policy
	label  FaultPoint
}

// FailureSweep simulates the workload with the plan's CrashMTTFMS set to
// each mean time to failure. An MTTF of 0 disables random crashes: with an
// otherwise-zero plan, that cell is the fault-free baseline. The plan's
// timeouts, message faults and explicit crashes apply in every cell.
func FailureSweep(wl workload.Workload, mttfs []float64, plan testbed.FaultPlan, opts SimOptions) ([]FaultPoint, error) {
	var cells []faultCell
	for _, mttf := range mttfs {
		p := plan
		p.CrashMTTFMS = mttf
		cells = append(cells, faultCell{p, wl.Replication, FaultPoint{MTTFMS: mttf}})
	}
	return faultSweep(wl, cells, opts)
}

// PartitionSweep simulates the workload under a scheduled network partition
// of each duration at each replication factor (read-one). The partition
// splits the first ceil(n/2) sites from the rest and starts a quarter of the
// way into the measured window. Duration 0 runs the partition-free baseline
// for its factor (plan.Partitions cleared), against which GoodputFrac is
// computed. The base plan should carry finite LockWaitTimeoutMS and
// PrepareTimeoutMS so minority-side transactions abort instead of wedging
// for the whole split.
func PartitionSweep(wl workload.Workload, durations []float64, factors []int, plan testbed.FaultPlan, opts SimOptions) ([]FaultPoint, error) {
	onset := opts.Warmup + 0.25*(opts.Duration-opts.Warmup)
	var halves [2][]testbed.NodeID // the first ceil(n/2) sites, and the rest
	for s := 0; s < wl.NumNodes; s++ {
		h := s / ((wl.NumNodes + 1) / 2)
		halves[h] = append(halves[h], testbed.NodeID(s))
	}
	var cells []faultCell
	for _, factor := range factors {
		for _, dur := range durations {
			p := plan
			p.Partitions = nil
			if dur > 0 {
				p.Partitions = []testbed.PartitionSchedule{{Groups: halves[:], AtMS: onset, HealAfterMS: dur}}
			}
			cells = append(cells, faultCell{p, repl.Policy{Factor: factor}, FaultPoint{DurationMS: dur}})
		}
	}
	return faultSweep(wl, cells, opts)
}

// ReplicationSweep simulates the workload under a fixed fault plan at each
// replication factor × read policy. Factor 1 runs the unreplicated baseline
// once, whatever the read modes, reported as "one"; its simulation path is
// byte-identical to a run with no replication policy at all. A nil or
// empty reads slice defaults to read-one.
func ReplicationSweep(wl workload.Workload, factors []int, reads []repl.ReadMode, plan testbed.FaultPlan, opts SimOptions) ([]FaultPoint, error) {
	var cells []faultCell
	for _, factor := range factors {
		modes := reads
		if factor <= 1 || len(modes) == 0 {
			modes = []repl.ReadMode{repl.ReadOne}
		}
		for _, mode := range modes {
			cells = append(cells, faultCell{plan, repl.Policy{Factor: factor, Read: mode}, FaultPoint{}})
		}
	}
	return faultSweep(wl, cells, opts)
}

// faultSweep runs the cells on runGrid with opts.Seed (common random
// numbers), bit-identical for any opts.Workers, and reduces each to a point.
func faultSweep(wl workload.Workload, cells []faultCell, opts SimOptions) ([]FaultPoint, error) {
	results, err := runGrid(len(cells), opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		c := cells[i]
		wl := wl
		wl.Faults = &c.plan
		wl.Replication = c.policy
		return simulate(wl, opts.Seed, opts, fmt.Sprintf("fault sweep mttf=%v dur=%v R=%d read=%v",
			c.label.MTTFMS, c.label.DurationMS, max(c.policy.Factor, 1), c.policy.Read))
	})
	if err != nil {
		return nil, err
	}
	pts := make([]FaultPoint, len(cells))
	for i, res := range results {
		pts[i] = faultPoint(cells[i], res)
	}
	for i := range pts { // GoodputFrac against the fault-free baseline
		pts[i].GoodputFrac = 1
		for _, b := range pts {
			if b.MTTFMS == 0 && b.DurationMS == 0 && b.Factor == pts[i].Factor &&
				b.ReadMode == pts[i].ReadMode && b.TxnPerSec > 0 {
				pts[i].GoodputFrac = pts[i].TxnPerSec / b.TxnPerSec
			}
		}
	}
	return pts, nil
}

// faultPoint reduces one cell's measurements to its point (GoodputFrac,
// which needs the baseline cell, is left to faultSweep).
func faultPoint(c faultCell, res testbed.Results) FaultPoint {
	pt := c.label
	pt.Factor = max(c.policy.Factor, 1)
	pt.ReadMode = c.policy.Read.String()
	pt.Results = res
	pt.TxnPerSec = goodput(res)
	_, _, pt.MeanCommitLatencyMS = commitTotals(res)
	var degraded int64
	for _, n := range res.Nodes {
		pt.Uptime += n.Availability / float64(len(res.Nodes))
		pt.Crashes += n.Crashes
		pt.CrashAborts += n.CrashAborts
		pt.TimeoutAborts += n.TimeoutAborts
		pt.InDoubtCommitted += n.InDoubtCommitted
		pt.InDoubtAborted += n.InDoubtAborted
		pt.PartitionAborts += n.PartitionAborts
		pt.PartitionShed += n.PartitionShed
		pt.SuspectEvents += n.SuspectEvents
		pt.FailoverReads += n.FailoverReads
		pt.ReplicaApplies += n.ReplicaApplies
		pt.QuorumReads += n.QuorumReads
		degraded += n.DegradedCommits
	}
	pt.DegradedGoodputFrac = 1
	if res.DegradedMS > 0 {
		pt.DegradedTxnPerSec = float64(degraded) / res.DegradedMS * 1000
		pt.DegradedGoodputFrac = 0
		if pt.TxnPerSec > 0 {
			pt.DegradedGoodputFrac = pt.DegradedTxnPerSec / pt.TxnPerSec
		}
	}
	return pt
}
