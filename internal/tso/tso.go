// Package tso implements basic timestamp-ordering concurrency control —
// the classical alternative to two-phase locking that the contemporaneous
// performance literature compares CARAT's scheme against (Galler's thesis,
// cited by the paper, "showed that the performance of basic timestamp
// ordering is better than that of two-phase locking"; Agrawal, Carey &
// Livny trace such contradictory conclusions to modeling assumptions).
// This package lets the testbed run the same workloads under basic TO so
// the comparison can be made with identical assumptions.
//
// Basic TO: every transaction carries a unique timestamp. Each granule
// remembers the largest read and write timestamps that touched it. A read
// is rejected if it arrives after a younger write; a write is rejected if
// it arrives after a younger read or write. Rejected transactions abort
// and restart with a fresh (larger) timestamp. There is no blocking and
// there are no deadlocks.
package tso

import "carat/internal/cc"

// granuleTS is the per-block timestamp pair.
type granuleTS struct {
	read, write int64
}

// Manager is one site's basic-TO scheduler, a cc.Protocol. Like the lock
// manager it is a synchronous data structure driven by the testbed's
// processes. A transaction's id is its timestamp: the testbed hands each
// attempt a fresh gid, so a restart carries a larger one.
type Manager struct {
	ts map[cc.GranuleID]*granuleTS
}

// NewManager creates an empty scheduler.
func NewManager() *Manager {
	return &Manager{ts: make(map[cc.GranuleID]*granuleTS)}
}

func (m *Manager) entry(g cc.GranuleID) *granuleTS {
	e := m.ts[g]
	if e == nil {
		e = &granuleTS{}
		m.ts[g] = e
	}
	return e
}

// Begin implements cc.Protocol; basic TO keeps no per-transaction state.
func (m *Manager) Begin(cc.TxnID, int64) {}

// Access admits or rejects one access of g by the transaction whose
// timestamp is txn. Any access is rejected after a younger write, a write
// also after a younger read. An admitted access advances the granule's
// read timestamp, and a write its write timestamp too.
func (m *Manager) Access(txn cc.TxnID, g cc.GranuleID, write bool) cc.Decision {
	ts := int64(txn)
	e := m.entry(g)
	if ts < e.write || write && ts < e.read {
		return cc.Decision{Outcome: cc.Restart}
	}
	e.read = max(e.read, ts)
	if write {
		e.write = ts
	}
	return cc.Decision{Outcome: cc.Grant}
}

// Validate implements cc.Protocol: basic TO decides at access time.
func (m *Manager) Validate(cc.TxnID) bool { return true }

// Finish implements cc.Protocol. Granule timestamps persist across a
// transaction's end — that is the essence of TO — so there is nothing to
// release.
func (m *Manager) Finish(cc.TxnID) {}
