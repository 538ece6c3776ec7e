// Package cc is the pluggable concurrency-control subsystem. It defines
// the Protocol interface the testbed drives for every granule access —
// admission, block/abort/restart decisions, commit-time validation and
// end-of-transaction release — plus per-paradigm capability flags that
// tell the testbed which machinery (Chandy–Misra deadlock probes, wounds,
// validation aborts, submission-time plans) a paradigm actually needs.
//
// The 2PL family (detection, wait-die, wound-wait) is adapted here from
// the internal/lock engine; basic timestamp ordering (internal/tso), the
// optimistic validator (cc/occ) and the queue-oriented deterministic
// scheduler (cc/quecc) implement Protocol directly. The paradigm
// set answers the dispute in the literature the paper cites (locking vs
// timestamp ordering, and later deterministic execution) under one
// simulator with identical assumptions.
package cc

import (
	"fmt"
	"strings"

	"carat/internal/lock"
)

// TxnID is a global transaction identifier; GranuleID a database block
// within one site's lock space. They convert directly to the engine
// packages' local types.
type (
	TxnID     int64
	GranuleID int
)

// Paradigm enumerates the supported concurrency-control paradigms. It is
// the one declaration of them: the testbed, the workloads and the facade
// all select a paradigm by these values.
type Paradigm int

const (
	// TwoPhaseDetect is 2PL with local + Chandy–Misra global deadlock
	// detection — the paper's scheme and the byte-pinned default.
	TwoPhaseDetect Paradigm = iota
	// TwoPhaseWaitDie is 2PL with wait-die prevention: a requester
	// younger than a conflicting holder aborts instead of waiting.
	TwoPhaseWaitDie
	// TwoPhaseWoundWait is 2PL with wound-wait prevention: an older
	// requester aborts younger conflicting holders.
	TwoPhaseWoundWait
	// TimestampOrdering is basic TO: no locks, no blocking; late
	// accesses abort and restart with a fresh timestamp.
	TimestampOrdering
	// Optimistic is OCC: execute without blocking, track read/write
	// sets, backward-validate at commit.
	Optimistic
	// QueueOrdered is QueCC-style deterministic execution: accesses are
	// planned into per-site priority queues over the granule space at
	// submission and drained in priority order — no locks, no deadlocks.
	QueueOrdered

	numParadigms
)

// Valid reports whether p is one of the declared paradigms.
func (p Paradigm) Valid() bool { return p >= 0 && p < numParadigms }

// paradigmNames are the canonical names, indexed by Paradigm.
var paradigmNames = [numParadigms]string{
	TwoPhaseDetect:    "2PL-detect",
	TwoPhaseWaitDie:   "2PL-wait-die",
	TwoPhaseWoundWait: "2PL-wound-wait",
	TimestampOrdering: "basic-TO",
	Optimistic:        "OCC",
	QueueOrdered:      "QueCC",
}

// String names the paradigm.
func (p Paradigm) String() string {
	if !p.Valid() {
		return fmt.Sprintf("cc(%d)", int(p))
	}
	return paradigmNames[p]
}

// Capabilities describes what machinery a paradigm needs from its host.
type Capabilities struct {
	// Deadlocks: waits-for cycles are possible, so the Chandy–Misra
	// probe detector and its retransmission policy must be armed. Only
	// 2PL with detection has this; prevention, TO, OCC and QueCC are
	// deadlock-free by construction.
	Deadlocks bool
	// Wounds: conflict victims are wounded (spared once committing)
	// rather than killed outright.
	Wounds bool
	// ValidatesAtCommit: the commit point must run Validate and abort
	// the transaction on a validation conflict (OCC).
	ValidatesAtCommit bool
	// Deterministic: accesses follow a plan declared at submission
	// (QueCC); the host must pre-draw each transaction's access set and
	// register it before execution begins.
	Deterministic bool
}

// Capabilities returns the paradigm's capability flags (none for an
// invalid paradigm).
func (p Paradigm) Capabilities() Capabilities {
	switch p {
	case TwoPhaseDetect:
		return Capabilities{Deadlocks: true}
	case TwoPhaseWoundWait:
		return Capabilities{Wounds: true}
	case Optimistic:
		return Capabilities{ValidatesAtCommit: true}
	case QueueOrdered:
		return Capabilities{Deterministic: true}
	default:
		return Capabilities{}
	}
}

// Names lists the canonical paradigm names, for error messages.
func Names() []string { return append([]string(nil), paradigmNames[:]...) }

// Parse resolves a paradigm name case-insensitively, accepting the
// canonical names plus common aliases. Unknown names return an error
// that lists the valid modes.
func Parse(name string) (Paradigm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "2pl", "2pl-detect", "detect":
		return TwoPhaseDetect, nil
	case "2pl-wait-die", "wait-die", "waitdie":
		return TwoPhaseWaitDie, nil
	case "2pl-wound-wait", "wound-wait", "woundwait":
		return TwoPhaseWoundWait, nil
	case "basic-to", "to", "timestamp", "timestamp-ordering", "tso":
		return TimestampOrdering, nil
	case "occ", "optimistic":
		return Optimistic, nil
	case "quecc", "queue", "deterministic":
		return QueueOrdered, nil
	default:
		return 0, fmt.Errorf("cc: unknown concurrency control %q (valid modes: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Outcome is an access-admission decision.
type Outcome int

const (
	// Grant admits the access immediately.
	Grant Outcome = iota
	// Block queues the access; the caller parks until the protocol's
	// grant callback wakes it.
	Block
	// Restart aborts the requester: it must roll back and resubmit.
	Restart
)

// Decision is the result of one access request: the outcome plus any
// victim transactions the requester displaced (wound-wait's wounds). The
// Victims slice is only valid until the next Access call.
type Decision struct {
	Outcome Outcome
	Victims []TxnID
}

// Protocol is one site's concurrency-control engine, driven synchronously
// by the testbed's processes. The host reads what machinery an engine
// needs from its Paradigm's Capabilities.
type Protocol interface {
	// Begin introduces a transaction before its first access. ts is the
	// paradigm-relevant priority timestamp: the first-submission gid for
	// the prevention disciplines (stable across restarts), unused
	// elsewhere — TO and QueCC order by the per-attempt gid itself.
	Begin(txn TxnID, ts int64)
	// Access requests one granule access (write=true for exclusive).
	Access(txn TxnID, g GranuleID, write bool) Decision
	// Validate runs commit-time validation, reporting whether the
	// transaction may commit. Paradigms without ValidatesAtCommit always
	// return true.
	Validate(txn TxnID) bool
	// Finish releases every claim, lock, queue entry and set the
	// transaction holds at this site (commit or abort).
	Finish(txn TxnID)
}

// lockCC adapts the lock.Manager (2PL with detection or prevention) to
// the Protocol interface. The call sequence into the manager is exactly
// the sequence the testbed used before the extraction, keeping the
// byte-pinned default trace identical.
type lockCC struct {
	m        *lock.Manager
	register bool // prevention disciplines pre-register timestamps
	victims  []TxnID
}

// ForLockManager wraps a lock manager configured for the given 2PL
// paradigm (TwoPhaseDetect, TwoPhaseWaitDie or TwoPhaseWoundWait).
func ForLockManager(m *lock.Manager, p Paradigm) Protocol {
	return &lockCC{
		m:        m,
		register: p == TwoPhaseWaitDie || p == TwoPhaseWoundWait,
	}
}

func (a *lockCC) Begin(txn TxnID, ts int64) {
	if a.register {
		a.m.RegisterTxn(lock.TxnID(txn), ts)
	}
}

func (a *lockCC) Access(txn TxnID, g GranuleID, write bool) Decision {
	mode := lock.Shared
	if write {
		mode = lock.Exclusive
	}
	out, victims := a.m.Request(lock.TxnID(txn), lock.GranuleID(g), mode)
	a.victims = a.victims[:0]
	for _, v := range victims {
		a.victims = append(a.victims, TxnID(v))
	}
	d := Decision{Victims: a.victims}
	switch out {
	case lock.Granted:
		d.Outcome = Grant
	case lock.Wait:
		d.Outcome = Block
	default:
		d.Outcome = Restart
	}
	return d
}

func (a *lockCC) Validate(TxnID) bool { return true }
func (a *lockCC) Finish(txn TxnID)    { a.m.ReleaseAll(lock.TxnID(txn)) }
