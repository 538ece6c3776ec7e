package testbed

import (
	"fmt"

	"carat/internal/cc"
	"carat/internal/cc/occ"
	"carat/internal/cc/quecc"
	"carat/internal/disk"
	"carat/internal/lock"
	"carat/internal/probe"
	"carat/internal/rng"
	"carat/internal/sim"
	"carat/internal/stats"
	"carat/internal/storage"
	"carat/internal/tso"
	"carat/internal/wal"
)

// node is one CARAT site: a CPU, a database disk (optionally a separate
// log disk), the TM server (a serialization point), a DM server pool, and
// the site-local protocol state (lock table, journal, probe detector).
type node struct {
	id  NodeID
	sys *System

	cpu    *sim.Resource
	tm     *sim.Resource // the single TM server: one critical section per message
	dmPool *sim.Resource
	// dbDisks holds the database device(s); block g lives on stripe
	// g mod len(dbDisks). The paper's configuration has one.
	dbDisks []*disk.Device
	logDisk *disk.Device // == dbDisks[0] when the log shares the database disk

	// costs[k] are the site's phase costs for kind k, resolved from Params
	// once so the per-request paths do no map lookups. hasCosts[k] is false
	// for a pair Params lacks; costsFor still panics on it.
	costs    [numKinds]PhaseCosts
	hasCosts [numKinds]bool

	// ccp is the site's concurrency-control engine behind the cc.Protocol
	// interface. locks and qcc expose the concrete engine where the site
	// needs more than the interface (nil under the other paradigms): locks
	// feeds the probe detector's waits-for edges, and qcc takes QueCC's
	// submission-time plans. detector — and with it every probe message —
	// exists only when the paradigm's waits can cycle (2PL with deadlock
	// detection).
	ccp      cc.Protocol
	locks    *lock.Manager    // 2PL family
	qcc      *quecc.Scheduler // QueCC
	journal  *wal.Log
	store    *storage.Store
	detector *probe.Detector

	// grantEv maps a transaction blocked in a concurrency-control wait at
	// this site to the event its process parks on; the engine's grant
	// callback triggers it.
	grantEv map[int64]*sim.Event

	// Fault state: down is true from a crash until its restart recovery
	// completes; upEv (non-nil only while down) releases users parked on
	// the restart.
	down      bool
	downSince float64
	upEv      *sim.Event

	// Measurement state; the per-kind arrays are indexed by TxnKind.
	commitRate  [numKinds]*stats.WindowedRate // non-nil after warmup
	commits     [numKinds]stats.Counter
	recordsDone [numKinds]stats.Counter
	respTime    [numKinds]stats.Tally
	respHist    [numKinds]*stats.Histogram
	submissions [numKinds]stats.Counter
	lockWaits   stats.Tally
	deadlocks   stats.Counter
	globalDead  stats.Counter
	msgs        stats.Counter
	// degradedCommits counts commits recorded here while some site was down.
	degradedCommits stats.Counter

	// Live metric groups: the site counts straight into them, and collect
	// copies each group whole and fills in only its derived fields.
	fault    FaultMetrics
	resil    ResilienceMetrics
	replOpen ReplOpenMetrics

	// Gray-failure state: grayCPU > 1 stretches every CPU service time at
	// this site (disk degradation lives on the devices); grayActive/graySince
	// track the degradation clock for GrayMS.
	grayCPU    float64
	grayActive bool
	graySince  float64
	grayMS     float64

	// Partition/health measurement state (partition-configured runs only).
	partitionAborts stats.Counter // aborts of txns homed here caused by an unreachable participant
	partitionShed   stats.Counter // submissions blocked pre-begin by partition or suspicion
	suspectEvents   stats.Counter // suspicion transitions raised by this site's detector

	// Resilience measurement state (txns homed here).
	retried         [numAbortCauses]stats.Counter // aborted submissions that were resubmitted
	abandoned       [numAbortCauses]stats.Counter // transactions that exhausted the retry budget
	admitWait       stats.Tally                   // queueing delay at the admission gate (ms)
	validationFails stats.Counter                 // OCC validation conflicts detected here

	// Replication state (replication runs only): replVersion maps a replica
	// block (see replBlock) held at this site to the last committed writer
	// applied to it. Volatile — wiped at a crash and rebuilt at restart from
	// the durable replica-apply records.
	replVersion map[int]int64

	// Open-arrival measurement state (open-mode runs only).
	openArrivals stats.Counter      // arrivals offered at this site
	openInSystem stats.TimeWeighted // open transactions concurrently resident here

	// Admission gate state: the currently admitted submission count (its
	// high-water mark is resil.PeakMPL), the FIFO of parked arrivals, and
	// the trailing abort timestamps behind the abort-rate trigger.
	admitted     int
	admitQ       []*sim.Event
	recentAborts []float64
}

func newNode(sys *System, id NodeID, cfg NodeConfig, layout storage.Layout, r *rng.Rand) *node {
	n := &node{
		id:          id,
		sys:         sys,
		cpu:         sim.NewResource(sys.env, fmt.Sprintf("cpu-%d", id), cfg.CPUs),
		tm:          sim.NewResource(sys.env, fmt.Sprintf("tm-%d", id), 1),
		dmPool:      sim.NewResource(sys.env, fmt.Sprintf("dm-%d", id), cfg.DMServers),
		store:       storage.NewStore(layout),
		journal:     wal.NewLog(),
		grantEv:     make(map[int64]*sim.Event),
		replVersion: make(map[int]int64),
	}
	for s := 0; s < cfg.DBDiskStripes; s++ {
		n.dbDisks = append(n.dbDisks, disk.New(sys.env,
			fmt.Sprintf("dbdisk-%d.%d", id, s), cfg.DBDisk, r.Split(uint64(1000+100*s+int(id)))))
	}
	if cfg.LogDisk != nil {
		n.logDisk = disk.New(sys.env, fmt.Sprintf("logdisk-%d", id), cfg.LogDisk, r.Split(uint64(2000+id)))
	} else {
		n.logDisk = n.dbDisks[0]
	}
	n.initCC()
	for _, k := range TxnKinds {
		n.costs[k], n.hasCosts[k] = sys.cfg.Params.Costs[id][k]
		n.respHist[k] = stats.NewHistogram(1, 1.05) // ms buckets, ~5% error
	}
	return n
}

// lockDiscipline maps the configured concurrency protocol to the lock
// manager's discipline.
func (s *System) lockDiscipline() lock.Discipline {
	switch s.cfg.Concurrency {
	case cc.TwoPhaseWaitDie:
		return lock.WaitDie
	case cc.TwoPhaseWoundWait:
		return lock.WoundWait
	default:
		return lock.Detect
	}
}

// initCC builds the site's concurrency-control engine for the configured
// paradigm. Only the machinery the paradigm needs exists: the Chandy–Misra
// probe detector is allocated solely when the paradigm can deadlock — 2PL
// with deadlock detection — so prevention, TO, OCC and QueCC runs carry
// no probe state at all.
func (n *node) initCC() {
	n.ccp, n.locks, n.qcc, n.detector = nil, nil, nil, nil
	switch p := n.sys.cfg.Concurrency; p {
	case cc.TimestampOrdering:
		n.ccp = tso.NewManager()
	case cc.Optimistic:
		n.ccp = occ.NewManager()
	case cc.QueueOrdered:
		n.qcc = quecc.NewScheduler(func(txn cc.TxnID) { n.wake(int64(txn)) })
		n.ccp = n.qcc
	default:
		n.locks = lock.NewManagerWithDiscipline(n.sys.lockDiscipline(), lock.VictimRequester, n.onGrant)
		n.ccp = cc.ForLockManager(n.locks, p)
		if n.sys.ccCaps.Deadlocks {
			n.detector = probe.NewDetector(probe.SiteID(n.id), (*probeHost)(n))
		}
	}
}

// wipeVolatile models the loss of the site's volatile memory at a crash:
// the concurrency-control engine (lock table, timestamp bookkeeping,
// validation sets or execution queues), probe detector state and pending
// grants are gone. The journal and store survive (stable storage).
func (n *node) wipeVolatile() {
	n.initCC()
	n.grantEv = make(map[int64]*sim.Event)
	n.replVersion = make(map[int]int64)
}

// onGrant adapts the lock manager's grant callback to wake.
func (n *node) onGrant(txn lock.TxnID, _ lock.GranuleID) {
	n.wake(int64(txn))
}

// wake releases the process parked on a concurrency-control wait at this
// site, if one is still parked.
func (n *node) wake(gid int64) {
	if ev, ok := n.grantEv[gid]; ok {
		delete(n.grantEv, gid)
		ev.Trigger(nil)
	}
}

// cpuUse charges one CPU burst at this site, stretched by the gray-failure
// factor while a degradation window is in effect. With no factor set the
// time passes through bit-exact.
func (n *node) cpuUse(p *sim.Proc, t float64) error {
	r, t := n.cpuVisit(t)
	return r.Use(p, t)
}

// cpuVisit returns the station and service time of one CPU burst of t at
// this site, for a Use or a visit chain (see cpuUse).
func (n *node) cpuVisit(t float64) (*sim.Resource, float64) {
	if n.grayCPU > 1 {
		t *= n.grayCPU
	}
	return n.cpu, t
}

// costsFor returns the site's phase costs for kind k, panicking like
// Params.CostsFor on a pair Params lacks.
func (n *node) costsFor(k TxnKind) PhaseCosts {
	if !n.hasCosts[k] {
		return n.sys.cfg.Params.CostsFor(n.id, k)
	}
	return n.costs[k]
}

// tmStep models one TM server message-processing step: the TM is a critical
// section (Section 5.5) whose body is a burst of CPU time.
func (n *node) tmStep(p *sim.Proc, cpuTime float64) error {
	if err := n.tm.Acquire(p); err != nil {
		return err
	}
	err := n.cpuUse(p, cpuTime)
	n.tm.Release()
	return err
}

// recordCommit counts one committed transaction of the kind at time t,
// feeding both the plain counter and the batch-means rate estimator.
func (n *node) recordCommit(k TxnKind, t float64) {
	n.commits[k].Inc()
	if wr := n.commitRate[k]; wr != nil {
		wr.Add(t)
	}
	if n.sys.downCount > 0 {
		n.degradedCommits.Inc()
	}
}

// dbDiskFor returns the stripe holding block g.
func (n *node) dbDiskFor(g int) *disk.Device {
	return n.dbDisks[g%len(n.dbDisks)]
}

// releaseTxn drops the transaction's concurrency-control state at this
// site: locks (2PL family), TO bookkeeping, OCC read/write sets or QueCC
// queue claims, depending on the configured engine.
func (n *node) releaseTxn(gid int64) {
	n.ccp.Finish(cc.TxnID(gid))
}

// separateLog reports whether the log has its own device.
func (n *node) separateLog() bool { return n.logDisk != n.dbDisks[0] }

// resetStats truncates every measurement window at time t (end of warmup).
func (n *node) resetStats(t float64) {
	n.cpu.ResetStats(t)
	n.tm.ResetStats(t)
	n.dmPool.ResetStats(t)
	for _, d := range n.dbDisks {
		d.ResetStats(t)
	}
	if n.separateLog() {
		n.logDisk.ResetStats(t)
	}
	window := (n.sys.cfg.Duration - n.sys.cfg.Warmup) / 20
	for _, k := range TxnKinds {
		if window > 0 {
			n.commitRate[k] = stats.NewWindowedRate(window, t)
		}
		n.commits[k].ResetAt(t)
		n.recordsDone[k].ResetAt(t)
		n.respTime[k].Reset()
		n.respHist[k].Reset()
		n.submissions[k].ResetAt(t)
	}
	n.lockWaits.Reset()
	n.deadlocks.ResetAt(t)
	n.globalDead.ResetAt(t)
	n.msgs.ResetAt(t)
	n.fault = FaultMetrics{}
	n.resil = ResilienceMetrics{PeakMPL: n.admitted}
	n.replOpen = ReplOpenMetrics{}
	n.degradedCommits.ResetAt(t)
	if n.down {
		n.downSince = t
	}
	n.grayMS = 0
	if n.grayActive {
		n.graySince = t
	}
	n.partitionAborts.ResetAt(t)
	n.partitionShed.ResetAt(t)
	n.suspectEvents.ResetAt(t)
	for c := range n.retried {
		n.retried[c].ResetAt(t)
		n.abandoned[c].ResetAt(t)
	}
	n.admitWait.Reset()
	n.validationFails.ResetAt(t)
	n.openArrivals.ResetAt(t)
	n.openInSystem.ResetAt(t)
}

// probeHost adapts a node to the probe.Host interface.
type probeHost node

// WaitsFor implements probe.Host using the site lock manager. Transaction
// ids are global, so lock.TxnID converts directly.
func (h *probeHost) WaitsFor(t probe.TxnID) []probe.TxnID {
	deps := (*node)(h).locks.WaitsFor(lock.TxnID(t))
	out := make([]probe.TxnID, len(deps))
	for i, d := range deps {
		out[i] = probe.TxnID(d)
	}
	return out
}

// ActiveSite implements probe.Host from the system-wide registry.
func (h *probeHost) ActiveSite(t probe.TxnID) (probe.SiteID, bool) {
	st, ok := (*node)(h).sys.reg[int64(t)]
	if !ok || st.finished {
		return 0, false
	}
	return probe.SiteID(st.activeNode), true
}
