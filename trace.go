package carat

import (
	"carat/internal/testbed"
)

// TraceEvent is one protocol event from a traced simulation run: lock
// acquisitions and waits, deadlock victim selections, rollbacks, two-phase
// commit steps, transaction outcomes and — under WithFaults, WithResilience
// or WithReplication — site crashes, restarts, timeout aborts, retry and
// admission decisions, and replica traffic. Times are simulation
// milliseconds.
type TraceEvent struct {
	TimeMS float64
	// Txn is the global transaction id, or -1 for site events (crash,
	// restart, admission-shed).
	Txn  int64
	Type TxnType
	Node int
	// Event is one of: begin, lock-wait, lock-grant, deadlock-victim,
	// rollback, prepare-ack, force-commit-record, slave-commit,
	// release-locks, committed, aborted, crash, restart, timeout-abort,
	// abandon, admission-shed, probe-retransmit, retry-backoff,
	// failover-read, replica-apply, validation-abort (OCC commit-time
	// validation failures), net-hop (one message on the shared fabric;
	// scale configurations only).
	Event   string
	Granule int // lock events only; -1 otherwise
}

// SimulateWithTrace runs the simulator like Simulate while streaming every
// protocol event to fn. Tracing slows long runs; it is intended for
// protocol inspection and debugging.
func SimulateWithTrace(w Workload, opts SimOptions, fn func(TraceEvent)) (*Measurement, error) {
	return simulate(w, opts, func(ev testbed.TraceEvent) {
		fn(TraceEvent{
			TimeMS:  ev.T,
			Txn:     ev.Txn,
			Type:    TxnType(ev.Kind.String()),
			Node:    int(ev.Node),
			Event:   ev.Ev.String(),
			Granule: ev.Granule,
		})
	})
}
