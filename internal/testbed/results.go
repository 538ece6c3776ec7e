package testbed

import "carat/internal/stats"

// NodeResults carries one site's measurements over the post-warmup window.
// Rates are per second (the simulation runs in milliseconds internally),
// matching the units of the paper's tables: TR-XPUT in transactions/second,
// Total-DIO in block I/Os per second, Total-CPU as a utilization fraction.
type NodeResults struct {
	// TxnThroughput is the commit rate per transaction kind for users
	// homed at this node, in transactions/second.
	TxnThroughput map[TxnKind]float64
	// TotalTxnThroughput is the sum over kinds (the tables' TR-XPUT).
	TotalTxnThroughput float64
	// RecordThroughput is the normalized throughput of Figures 5 and 8:
	// commit rate times records accessed per transaction, in records/second.
	RecordThroughput float64
	// CPUUtilization is the busy fraction of the node's CPU (Total-CPU).
	CPUUtilization float64
	// DiskIORate is the combined database+log disk operation rate in
	// block I/Os per second (Total-DIO).
	DiskIORate float64
	// DBDiskUtilization and LogDiskUtilization are device busy fractions;
	// they coincide when the log shares the database disk.
	DBDiskUtilization  float64
	LogDiskUtilization float64
	// TMUtilization is the busy fraction of the TM server critical
	// section — the serialization the model deliberately ignores.
	TMUtilization float64
	// MeanResponse is the mean user response time per kind in ms,
	// including aborted executions and resubmissions (the paper's R).
	MeanResponse map[TxnKind]float64
	// P95Response is the 95th-percentile response time per kind in ms
	// (histogram estimate, ~5% relative error).
	P95Response map[TxnKind]float64
	// ThroughputCI is the 95% batch-means half-width around TxnThroughput
	// per kind, in transactions/second (+Inf when the run is too short for
	// two batch windows).
	ThroughputCI map[TxnKind]float64
	// Commits and Submissions count per kind; Submissions/Commits
	// estimates the model's N_s.
	Commits     map[TxnKind]int64
	Submissions map[TxnKind]int64
	// LocalDeadlocks counts victims of wait-for-graph cycles detected at
	// this site; GlobalDeadlocks counts probe-detected victims that were
	// waiting here.
	LocalDeadlocks  int64
	GlobalDeadlocks int64
	// MeanLockWait is the mean blocked time per lock wait at this site, ms.
	MeanLockWait float64
	// LockWaits is the number of lock waits observed at this site.
	LockWaits int64
	// Messages counts protocol messages sent or received by this node.
	Messages int64

	FaultMetrics
	// DegradedCommits counts commits recorded at this site while at least
	// one site in the system was down — the goodput under partial outage.
	DegradedCommits int64

	// Retried counts aborted submissions of transactions homed here that
	// were resubmitted, by abort cause; Abandoned counts transactions that
	// exhausted their retry budget instead. Together they separate retried
	// work from given-up work, so availability metrics don't double-count
	// resubmissions. Retried is live even with a zero Resilience config:
	// the default policy resubmits every abort.
	Retried   map[AbortCause]int64
	Abandoned map[AbortCause]int64
	ResilienceMetrics

	// ValidationAborts counts OCC backward-validation conflicts detected
	// at this site. Zero — and omitted from JSON, keeping non-OCC
	// serializations byte-identical — except under OCC.
	ValidationAborts int64 `json:",omitempty"`

	// Partition and gray-failure measurements (all zero — and omitted from
	// JSON, keeping fault-free serializations byte-identical — unless the
	// fault plan configures partitions or gray failures).

	// PartitionAborts counts aborted submissions of transactions homed here
	// whose cause was an unreachable (partitioned-away) participant. They
	// are also classified under CauseCrash in Retried/Abandoned.
	PartitionAborts int64 `json:",omitempty"`
	// PartitionShed counts submissions blocked before they began because a
	// participant was unreachable or suspected by the failure detector.
	PartitionShed int64 `json:",omitempty"`
	// SuspectEvents counts suspicion transitions raised by this site's
	// failure detector (recoveries are not counted).
	SuspectEvents int64 `json:",omitempty"`
	// GrayMS is the time this site spent inside a gray-failure degradation
	// window within the measurement window, in ms.
	GrayMS float64 `json:",omitempty"`

	ReplOpenMetrics
}

// Results is a full measurement run.
type Results struct {
	Nodes []NodeResults
	// Window is the measurement window length in ms.
	Window float64
	// DegradedMS is the time within the window during which at least one
	// site was down (zero without an active fault plan).
	DegradedMS float64
	// Partitions counts network partitions that took effect within the
	// window; PartitionMS is the time a partition was in effect. Both are
	// zero — and omitted from JSON — unless partitions are configured.
	Partitions  int64   `json:",omitempty"`
	PartitionMS float64 `json:",omitempty"`

	FabricMetrics
}

// The per-site metric groups below are embedded by value in NodeResults
// (and FabricMetrics in Results) and, through type aliases, in the facade's
// carat.NodeMetrics and carat.Measurement, so each field is declared once
// and serializes identically at both layers. A node counts straight into
// its live group values; collect copies each group and fills in only the
// derived fields named in its doc comment. Adding a metric is one field
// plus its increment.

// FaultMetrics are a site's crash-fault measurements: all zero without an
// active fault plan. DowntimeMS and Availability are derived at collection.
type FaultMetrics struct {
	// Crashes counts this site's crashes in the window.
	Crashes int64
	// DowntimeMS is the site's total time down (crash until restart
	// recovery completed) within the window, in ms.
	DowntimeMS float64
	// Availability is 1 - DowntimeMS/Window.
	Availability float64
	// CrashAborts and TimeoutAborts count aborted submissions of
	// transactions homed here, by cause (deadlock aborts are counted as
	// deadlocks).
	CrashAborts   int64
	TimeoutAborts int64
	// InDoubtCommitted and InDoubtAborted count prepared two-phase-commit
	// branches this site resolved during restart recovery.
	InDoubtCommitted int64
	InDoubtAborted   int64
	// MessagesLost counts lost (and retransmitted) messages leaving here.
	MessagesLost int64
}

// ResilienceMetrics are a site's admission-gate and probe-retransmission
// measurements: zero unless the corresponding Resilience knob (or probe
// loss) is set. MeanAdmitWaitMS is derived at collection.
type ResilienceMetrics struct {
	// ShedArrivals and DelayedArrivals count admission-gate rejections and
	// queueings of arrivals at this site; MeanAdmitWaitMS is the mean
	// queueing delay of the delayed ones.
	ShedArrivals    int64
	DelayedArrivals int64
	MeanAdmitWaitMS float64
	// PeakMPL is the high-water mark of concurrently admitted submissions
	// homed here within the window (0 when admission control is off).
	PeakMPL int
	// ProbesLost counts deadlock probes fault injection dropped leaving
	// this site; ProbesResent counts probe rounds re-initiated here.
	ProbesLost   int64
	ProbesResent int64
}

// ReplOpenMetrics are a site's replication measurements (zero unless
// Config.Replication is active) and open-arrival measurements (zero unless
// Config.Open is active). Every Open* field is derived at collection.
type ReplOpenMetrics struct {
	// FailoverReads counts reads of a down site's granules this site served
	// from its replica copies.
	FailoverReads int64
	// ReplicaApplies counts committed writers' updates journaled at this
	// site's replica copies, including restart catch-up.
	ReplicaApplies int64
	// QuorumReads counts quorum confirmations performed for reads served at
	// this site (read-quorum policy only).
	QuorumReads int64

	// OpenArrivals counts open-mode transactions that arrived at this site
	// within the window; OpenOfferedPerSec is the measured offered rate.
	OpenArrivals      int64
	OpenOfferedPerSec float64
	// OpenMeanInSystem and OpenPeakInSystem are the time-average and peak
	// number of open transactions concurrently resident at this site
	// (arrival to commit or abandonment, including admission-gate queueing)
	// — the open queue's N by Little's law.
	OpenMeanInSystem float64
	OpenPeakInSystem float64
	// OpenMeanResponseMS, OpenP50ResponseMS and OpenP95ResponseMS aggregate
	// the committed response-time distribution across all transaction kinds
	// homed here (per-kind figures remain in the per-kind response maps).
	OpenMeanResponseMS float64
	OpenP50ResponseMS  float64
	OpenP95ResponseMS  float64
}

// FabricMetrics are the shared-fabric network measurements: the Ethernet
// of the scale-out configurations treated as a first-class queueing
// center. All zero — and omitted from JSON, keeping pre-existing
// serializations byte-identical — unless the network is a comm.Ethernet
// with Hosts > 0. NetMessages and NetBytes count live; the rest are
// derived at collection.
type FabricMetrics struct {
	// NetMessages and NetBytes count the inter-site messages (and their
	// payload bytes) routed through the shared fabric in the window.
	NetMessages int64 `json:",omitempty"`
	NetBytes    int64 `json:",omitempty"`
	// NetUtilization is the wire's offered utilization: summed raw
	// transmission time over the window. The fabric is an analytic delay
	// model, not a serializing server, so values above 1 are possible and
	// mean the offered traffic exceeds the channel's raw capacity — a
	// regime where a real CSMA/CD segment would be unstable (the queueing
	// estimate inside the delay model saturates at 0.95 occupancy).
	NetUtilization float64 `json:",omitempty"`
	// NetMeanInflationMS and NetMeanQueueMS are the mean per-message
	// contention-interval inflation and M/D/1 channel queueing delay, ms.
	NetMeanInflationMS float64 `json:",omitempty"`
	NetMeanQueueMS     float64 `json:",omitempty"`
}

// collect snapshots every node's statistics at time t, the end of the
// measurement window (the time the simulation stopped executing events).
func (s *System) collect(t float64) Results {
	res := Results{Window: t - s.cfg.Warmup}
	for _, n := range s.nodes {
		nr := NodeResults{
			TxnThroughput: make(map[TxnKind]float64),
			ThroughputCI:  make(map[TxnKind]float64),
			MeanResponse:  make(map[TxnKind]float64),
			P95Response:   make(map[TxnKind]float64),
			Commits:       make(map[TxnKind]int64),
			Submissions:   make(map[TxnKind]int64),
		}
		for _, k := range TxnKinds {
			x := n.commits[k].Rate(t) * 1000 // per ms -> per s
			nr.TxnThroughput[k] = x
			if wr := n.commitRate[k]; wr != nil {
				_, half := wr.Rate(t)
				nr.ThroughputCI[k] = half * 1000
			}
			nr.TotalTxnThroughput += x
			nr.RecordThroughput += n.recordsDone[k].Rate(t) * 1000
			nr.MeanResponse[k] = n.respTime[k].Mean()
			nr.P95Response[k] = n.respHist[k].Quantile(0.95)
			nr.Commits[k] = n.commits[k].N()
			nr.Submissions[k] = n.submissions[k].N()
		}
		nr.CPUUtilization = n.cpu.Utilization(t)
		nr.TMUtilization = n.tm.Utilization(t)
		for _, d := range n.dbDisks {
			nr.DBDiskUtilization += d.Utilization(t) / float64(len(n.dbDisks))
			nr.DiskIORate += d.IORate(t) * 1000
		}
		if n.separateLog() {
			nr.LogDiskUtilization = n.logDisk.Utilization(t)
			nr.DiskIORate += n.logDisk.IORate(t) * 1000
		} else {
			nr.LogDiskUtilization = nr.DBDiskUtilization
		}
		nr.LocalDeadlocks = n.deadlocks.N()
		nr.GlobalDeadlocks = n.globalDead.N()
		nr.MeanLockWait = n.lockWaits.Mean()
		nr.LockWaits = n.lockWaits.N()
		nr.Messages = n.msgs.N()
		nr.FaultMetrics = n.fault
		if n.down {
			nr.DowntimeMS += t - n.downSince
		}
		nr.Availability = 1
		if res.Window > 0 {
			nr.Availability = 1 - nr.DowntimeMS/res.Window
		}
		nr.DegradedCommits = n.degradedCommits.N()
		nr.Retried = make(map[AbortCause]int64)
		nr.Abandoned = make(map[AbortCause]int64)
		for c := AbortCause(0); c < numAbortCauses; c++ {
			if c == CauseValidation && !s.ccCaps.ValidatesAtCommit {
				// Only OCC produces validation aborts; keeping the key out
				// of the maps everywhere else keeps the serialized shape —
				// and the kernel-equivalence pins — of every pre-existing
				// configuration byte-identical.
				continue
			}
			nr.Retried[c] = n.retried[c].N()
			nr.Abandoned[c] = n.abandoned[c].N()
		}
		nr.ValidationAborts = n.validationFails.N()
		nr.PartitionAborts = n.partitionAborts.N()
		nr.PartitionShed = n.partitionShed.N()
		nr.SuspectEvents = n.suspectEvents.N()
		nr.GrayMS = n.grayMS
		if n.grayActive {
			nr.GrayMS += t - n.graySince
		}
		nr.ResilienceMetrics = n.resil
		nr.MeanAdmitWaitMS = n.admitWait.Mean()
		nr.ReplOpenMetrics = n.replOpen
		if s.open != nil {
			nr.OpenArrivals = n.openArrivals.N()
			nr.OpenOfferedPerSec = n.openArrivals.Rate(t) * 1000
			nr.OpenMeanInSystem = n.openInSystem.Mean(t)
			nr.OpenPeakInSystem = n.openInSystem.Max()
			agg := stats.NewHistogram(1, 1.05)
			var sum float64
			var cnt int64
			for _, k := range TxnKinds {
				agg.Merge(n.respHist[k])
				sum += n.respTime[k].Sum()
				cnt += n.respTime[k].N()
			}
			if cnt > 0 {
				nr.OpenMeanResponseMS = sum / float64(cnt)
			}
			nr.OpenP50ResponseMS = agg.Quantile(0.50)
			nr.OpenP95ResponseMS = agg.Quantile(0.95)
		}
		res.Nodes = append(res.Nodes, nr)
	}
	res.DegradedMS = s.degradedMS
	if s.downCount > 0 {
		res.DegradedMS += t - s.degradedSince
	}
	if f := s.faults; f != nil {
		res.Partitions = f.partitions
		res.PartitionMS = f.partitionMS
		if f.part.Active() {
			res.PartitionMS += t - f.partitionSince
		}
	}
	if fb := s.fabric; fb != nil {
		res.FabricMetrics = fb.FabricMetrics
		if res.Window > 0 {
			res.NetUtilization = fb.busyMS / res.Window
		}
		if fb.NetMessages > 0 {
			res.NetMeanInflationMS = fb.inflateMS / float64(fb.NetMessages)
			res.NetMeanQueueMS = fb.queueMS / float64(fb.NetMessages)
		}
	}
	return res
}
