// Package occ implements optimistic concurrency control with backward
// validation (Kung & Robinson): transactions execute without blocking,
// recording per-site read and write sets, and validate at commit against
// the write sets of transactions that committed since they began. A
// conflict aborts the validating transaction — counted by the testbed
// under its own abort cause — and the closed-loop user resubmits.
//
// The manager is one site's validator, a synchronous data structure
// driven by the testbed's processes like the lock and TO managers.
package occ

import (
	"slices"

	"carat/internal/cc"
)

// liveTxn is an executing transaction's tracking state.
type liveTxn struct {
	start  int64 // commit sequence number at Begin
	reads  map[cc.GranuleID]bool
	writes map[cc.GranuleID]bool
}

// committedTxn is a published write set awaiting garbage collection.
type committedTxn struct {
	seq    int64
	writes []cc.GranuleID
}

// Manager is one site's OCC validator.
type Manager struct {
	seq  int64
	live map[cc.TxnID]*liveTxn
	hist []committedTxn // ascending seq
	// freeSets recycles read/write sets across transactions so the
	// steady-state access path stays allocation-light.
	freeSets []map[cc.GranuleID]bool
}

// NewManager creates an empty validator.
func NewManager() *Manager {
	return &Manager{live: make(map[cc.TxnID]*liveTxn)}
}

// Live returns the number of transactions with tracking state.
func (m *Manager) Live() int { return len(m.live) }

func (m *Manager) getSet() map[cc.GranuleID]bool {
	if k := len(m.freeSets); k > 0 {
		s := m.freeSets[k-1]
		m.freeSets[k-1] = nil
		m.freeSets = m.freeSets[:k-1]
		return s
	}
	return make(map[cc.GranuleID]bool)
}

func (m *Manager) putSet(s map[cc.GranuleID]bool) {
	clear(s)
	m.freeSets = append(m.freeSets, s)
}

// Begin starts tracking a transaction: its validation window opens at the
// current commit sequence number. The ts parameter is unused (Protocol
// interface parity).
func (m *Manager) Begin(txn cc.TxnID, _ int64) {
	if m.live[txn] != nil {
		return
	}
	m.live[txn] = &liveTxn{start: m.seq, reads: m.getSet(), writes: m.getSet()}
}

func (m *Manager) track(txn cc.TxnID) *liveTxn {
	t := m.live[txn]
	if t == nil {
		// Access without Begin (a failed-over read served here): open the
		// window late, at the current sequence — conservative for nothing
		// published since.
		m.Begin(txn, 0)
		t = m.live[txn]
	}
	return t
}

// Access records one granule access and always grants: OCC never blocks
// during the read phase. An update access reads and writes the granule.
func (m *Manager) Access(txn cc.TxnID, g cc.GranuleID, write bool) cc.Decision {
	t := m.track(txn)
	t.reads[g] = true
	if write {
		t.writes[g] = true
	}
	return cc.Decision{Outcome: cc.Grant}
}

// Validate runs backward validation: the transaction conflicts if any
// write set published since its window opened intersects its read or
// write set. On success the transaction's own write set is published at
// the next commit sequence number in the same step — the validate-and-
// publish critical section is atomic here because the simulation kernel
// runs events serially. Read-only transactions publish nothing.
//
// A transaction whose commit protocol fails after a successful Validate
// (participant crash, prepare timeout) leaves its published set behind:
// later validators may see phantom conflicts with it. That is the
// conservative direction — spurious aborts, never lost ones.
func (m *Manager) Validate(txn cc.TxnID) bool {
	t := m.live[txn]
	if t == nil {
		return true
	}
	for i := len(m.hist) - 1; i >= 0; i-- {
		e := &m.hist[i]
		if e.seq <= t.start {
			break
		}
		for _, g := range e.writes {
			if t.reads[g] || t.writes[g] {
				return false
			}
		}
	}
	if len(t.writes) > 0 {
		ws := make([]cc.GranuleID, 0, len(t.writes))
		for g := range t.writes {
			ws = append(ws, g)
		}
		slices.Sort(ws)
		m.seq++
		m.hist = append(m.hist, committedTxn{seq: m.seq, writes: ws})
		m.gc()
	}
	return true
}

// gc drops published write sets older than every live transaction's
// validation window — no future validation can reach them.
func (m *Manager) gc() {
	min := m.seq
	for _, t := range m.live {
		if t.start < min {
			min = t.start
		}
	}
	cut := 0
	for cut < len(m.hist) && m.hist[cut].seq <= min {
		cut++
	}
	if cut > 0 {
		m.hist = append(m.hist[:0], m.hist[cut:]...)
	}
}

// Finish drops a transaction's tracking state (commit or abort),
// recycling its sets.
func (m *Manager) Finish(txn cc.TxnID) {
	if t, ok := m.live[txn]; ok {
		m.putSet(t.reads)
		m.putSet(t.writes)
		delete(m.live, txn)
	}
}
