package testbed

import "fmt"

// TraceKind tags protocol events emitted by the simulator when a Trace
// callback is configured. The event stream makes protocol-order properties
// (strict two-phase locking, two-phase commit sequencing, rollback before
// release) directly checkable — the testbed's equivalent of CARAT's
// instrumentation.
type TraceKind int

const (
	// EvBegin marks a transaction submission (one per attempt).
	EvBegin TraceKind = iota
	// EvLockWait marks a lock request blocking.
	EvLockWait
	// EvLockGrant marks a lock acquired (immediately or after a wait).
	EvLockGrant
	// EvDeadlock marks the transaction's selection as a deadlock victim.
	EvDeadlock
	// EvRollback marks the start of undo at a node.
	EvRollback
	// EvPrepareAck marks a slave's acknowledgment of PREPARE.
	EvPrepareAck
	// EvForceCommit marks the coordinator's force-written commit record —
	// the commit point.
	EvForceCommit
	// EvSlaveCommit marks a slave processing the COMMIT message.
	EvSlaveCommit
	// EvRelease marks a node releasing all of the transaction's locks.
	EvRelease
	// EvCommitted marks successful completion of the attempt.
	EvCommitted
	// EvAborted marks the end of the abort path for the attempt.
	EvAborted
	// EvCrash marks a site crash (fault injection; Txn is -1).
	EvCrash
	// EvRestart marks a site completing restart recovery and rejoining
	// (fault injection; Txn is -1).
	EvRestart
	// EvTimeoutAbort marks a transaction doomed by a lock-wait or 2PC
	// prepare timeout (fault injection).
	EvTimeoutAbort
	// EvAbandon marks a transaction giving up after exhausting its retry
	// budget (resilience; Txn is the last aborted submission's gid).
	EvAbandon
	// EvShed marks an arrival rejected by the admission gate (resilience;
	// Txn is -1: no submission was created).
	EvShed
	// EvReprobe marks a blocked transaction re-initiating its deadlock
	// probes (resilience).
	EvReprobe
	// EvRetryBackoff marks a user waiting out the exponential retry backoff
	// before resubmitting an aborted transaction (resilience; Txn is the
	// aborted submission's gid).
	EvRetryBackoff
	// EvFailoverRead marks a read of a down site's granule served at a
	// surviving replica (replication; Granule is the replica block id).
	EvFailoverRead
	// EvReplicaApply marks a committed writer's update applied at a replica
	// site (replication; Granule is the replica block id).
	EvReplicaApply
	// EvArrival marks an open-mode transaction arriving at its home site
	// (open arrivals; no submission exists yet, so Txn is the negated
	// arrival sequence number).
	EvArrival
	// EvPartition marks a network partition taking effect: one event per
	// affected site (fault injection; Txn is -1, Node is the site, Granule
	// is its partition-group index).
	EvPartition
	// EvPartitionHeal marks the partition healing (fault injection; Txn is
	// -1, Node and Granule are -1).
	EvPartitionHeal
	// EvSuspect marks the failure detector at one site starting to suspect
	// another (health; Txn is -1, Node is the observer, Granule is the
	// suspected site).
	EvSuspect
	// EvTrust marks the failure detector at one site trusting another again
	// (health; Txn is -1, Node is the observer, Granule is the trusted site).
	EvTrust
	// EvValidationAbort marks a transaction failing OCC backward validation
	// at the named site (OCC only).
	EvValidationAbort
	// EvNetHop marks one inter-site message routed through the shared
	// Ethernet fabric (scale-out fabric runs only; Txn is -1, Node is the
	// sender, Granule is the destination site). New kinds append here: the
	// numeric values feed the kernel-equivalence trace hashes.
	EvNetHop
)

var traceNames = map[TraceKind]string{
	EvBegin:           "begin",
	EvLockWait:        "lock-wait",
	EvLockGrant:       "lock-grant",
	EvDeadlock:        "deadlock-victim",
	EvRollback:        "rollback",
	EvPrepareAck:      "prepare-ack",
	EvForceCommit:     "force-commit-record",
	EvSlaveCommit:     "slave-commit",
	EvRelease:         "release-locks",
	EvCommitted:       "committed",
	EvAborted:         "aborted",
	EvCrash:           "crash",
	EvRestart:         "restart",
	EvTimeoutAbort:    "timeout-abort",
	EvAbandon:         "abandon",
	EvShed:            "admission-shed",
	EvReprobe:         "probe-retransmit",
	EvRetryBackoff:    "retry-backoff",
	EvFailoverRead:    "failover-read",
	EvReplicaApply:    "replica-apply",
	EvArrival:         "arrival",
	EvPartition:       "partition",
	EvPartitionHeal:   "partition-heal",
	EvSuspect:         "suspect",
	EvTrust:           "trust",
	EvValidationAbort: "validation-abort",
	EvNetHop:          "net-hop",
}

// String names the event.
func (k TraceKind) String() string {
	if s, ok := traceNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// TraceEvent is one protocol event.
type TraceEvent struct {
	T       float64 // simulation time, ms
	Txn     int64   // global transaction id (one per attempt)
	Kind    TxnKind
	Node    NodeID
	Ev      TraceKind
	Granule int // lock events only; -1 otherwise
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%10.1f txn=%d %v node=%d %v g=%d", e.T, e.Txn, e.Kind, e.Node, e.Ev, e.Granule)
}

// trace emits an event if tracing is configured.
func (s *System) trace(txn int64, kind TxnKind, node NodeID, ev TraceKind, granule int) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(TraceEvent{T: s.env.Now(), Txn: txn, Kind: kind, Node: node, Ev: ev, Granule: granule})
}
