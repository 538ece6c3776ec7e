// Package lock implements the CARAT lock manager: two-phase locking at
// database-block ("granule") granularity with shared and exclusive modes,
// FCFS wait queues, lock upgrades, and local deadlock detection by search
// of the transaction-wait-for graph, exactly the regime modelled in the
// paper (Sections 2–3).
//
// The manager is independent of the simulation kernel: it is a synchronous
// data structure that reports grants through a callback, so it can be unit-
// and property-tested in isolation and driven by the testbed's processes.
package lock

import (
	"fmt"
	"slices"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// compatible reports whether a lock in mode a coexists with one in mode b.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// TxnID identifies a transaction agent at one site.
type TxnID int64

// GranuleID identifies one database block at one site. A site's own
// (primary) granules use the block number directly, in [0, granules);
// replicated copies of other sites' granules are routed into the disjoint
// ReplicaGranule namespace, so a failed-over read never contends with the
// serving site's primary data.
type GranuleID int

// ReplicaGranule maps the copy of granule g owned by site owner into a
// lock id disjoint from every primary granule id: primary-copy locking
// routes writes to the owner's [0, granules) namespace, while reads served
// at a replica lock this id at the serving site.
func ReplicaGranule(owner, granules, g int) GranuleID {
	return GranuleID((owner+1)*granules + g)
}

// Outcome is the result of a lock request.
type Outcome int

const (
	// Granted means the lock was acquired immediately.
	Granted Outcome = iota
	// Wait means the request was queued; a Grant callback will follow.
	Wait
	// Deadlock means the request would close a wait-for cycle and the
	// requester was chosen as victim; the request was not queued.
	Deadlock
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Wait:
		return "wait"
	case Deadlock:
		return "deadlock"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// VictimPolicy chooses which transaction on a wait-for cycle dies.
type VictimPolicy int

const (
	// VictimRequester aborts the transaction whose request closed the
	// cycle — CARAT's policy and the one Pd(t,i) in the model describes
	// ("a blocked transaction is chosen as deadlock victim").
	VictimRequester VictimPolicy = iota
	// VictimYoungest aborts the cycle member with the largest TxnID.
	VictimYoungest
	// VictimFewestLocks aborts the cycle member holding the fewest locks,
	// minimizing rollback work.
	VictimFewestLocks
)

// Discipline selects how the manager deals with potential deadlocks.
// CARAT uses detection (the paper's subject); the two timestamp-based
// prevention schemes of Rosenkrantz et al. are provided as the classical
// baselines the contemporaneous modeling literature compares against.
type Discipline int

const (
	// Detect allows arbitrary waiting and searches the wait-for graph for
	// cycles on every blocked request (dynamic locking with deadlock
	// detection — the paper's scheme).
	Detect Discipline = iota
	// WaitDie lets a requester wait only for younger holders; conflicting
	// with an older holder kills the requester (non-preemptive
	// prevention). Timestamps come from RegisterTxn.
	WaitDie
	// WoundWait lets an older requester wound (abort) younger conflicting
	// holders and wait; a younger requester waits for older holders
	// (preemptive prevention).
	WoundWait
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case Detect:
		return "detect"
	case WaitDie:
		return "wait-die"
	case WoundWait:
		return "wound-wait"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// request is a queued lock request.
type request struct {
	txn     TxnID
	mode    Mode
	upgrade bool
}

// grantRec is one holder of a granule. The granted set is a small slice —
// one holder for exclusive locks, rarely more than a handful for shared —
// so linear scans beat a map and the entry recycles with zero allocation.
type grantRec struct {
	txn  TxnID
	mode Mode
}

// entry is the lock table entry for one granule.
type entry struct {
	granted []grantRec
	queue   []*request
}

// grantedOf returns txn's granted mode on e, if any.
func (e *entry) grantedOf(txn TxnID) (Mode, bool) {
	for _, gr := range e.granted {
		if gr.txn == txn {
			return gr.mode, true
		}
	}
	return Shared, false
}

// setGranted records txn as holding e in mode, replacing any existing record.
func (e *entry) setGranted(txn TxnID, mode Mode) {
	for i := range e.granted {
		if e.granted[i].txn == txn {
			e.granted[i].mode = mode
			return
		}
	}
	e.granted = append(e.granted, grantRec{txn: txn, mode: mode})
}

// dropGranted removes txn's holder record from e, preserving order.
func (e *entry) dropGranted(txn TxnID) {
	for i := range e.granted {
		if e.granted[i].txn == txn {
			n := len(e.granted)
			copy(e.granted[i:], e.granted[i+1:])
			e.granted = e.granted[:n-1]
			return
		}
	}
}

// Stats aggregates lock-manager activity for the measurement reports.
type Stats struct {
	Requests  int64 // lock requests processed
	Immediate int64 // granted without waiting
	Waits     int64 // requests that had to queue
	Deadlocks int64 // cycles detected
	Upgrades  int64 // S->X upgrades requested
}

// Manager is one site's lock manager.
type Manager struct {
	table      map[GranuleID]*entry
	held       map[TxnID]map[GranuleID]Mode
	policy     VictimPolicy
	discipline Discipline
	ts         map[TxnID]int64 // prevention timestamps (RegisterTxn)

	// onGrant is invoked when a queued request is finally granted.
	onGrant func(txn TxnID, g GranuleID)

	// queuedAt indexes the granules on which each transaction has a queued
	// request, so the wait-for graph (WaitsFor, Waiting, ReleaseAll's
	// withdrawal pass) is read without scanning the whole lock table.
	queuedAt map[TxnID][]GranuleID

	// Free lists and scratch buffers. Lock-table entries, queued requests,
	// per-transaction held maps and index slices churn once per granule
	// touch / wait / transaction, so they are recycled (with their map
	// capacity) instead of reallocated.
	freeEntries []*entry
	freeReqs    []*request
	freeHeld    []map[GranuleID]Mode
	freeGSlices [][]GranuleID
	seenBuf     map[TxnID]struct{} // WaitsFor scratch
	heldBuf     []GranuleID        // ReleaseAll scratch
	queuedBuf   []GranuleID        // ReleaseAll scratch

	stats Stats
}

// newEntry takes a lock-table entry from the free list.
func (m *Manager) newEntry() *entry {
	if k := len(m.freeEntries); k > 0 {
		e := m.freeEntries[k-1]
		m.freeEntries[k-1] = nil
		m.freeEntries = m.freeEntries[:k-1]
		return e
	}
	return &entry{}
}

// newRequest takes a request record from the free list.
func (m *Manager) newRequest(txn TxnID, mode Mode, upgrade bool) *request {
	if k := len(m.freeReqs); k > 0 {
		r := m.freeReqs[k-1]
		m.freeReqs[k-1] = nil
		m.freeReqs = m.freeReqs[:k-1]
		*r = request{txn: txn, mode: mode, upgrade: upgrade}
		return r
	}
	return &request{txn: txn, mode: mode, upgrade: upgrade}
}

func (m *Manager) freeRequest(r *request) {
	m.freeReqs = append(m.freeReqs, r)
}

// pushRequest queues req on e (the entry for granule g). Upgrades go to the
// head of the queue: the holder cannot be asked to wait behind fresh requests
// for a lock it holds.
func (m *Manager) pushRequest(e *entry, g GranuleID, req *request) {
	if req.upgrade {
		e.queue = append(e.queue, nil)
		copy(e.queue[1:], e.queue)
		e.queue[0] = req
	} else {
		e.queue = append(e.queue, req)
	}
	m.noteQueued(req.txn, g)
}

// noteQueued records in the index that txn has a queued request on g.
func (m *Manager) noteQueued(txn TxnID, g GranuleID) {
	s, ok := m.queuedAt[txn]
	if !ok {
		if k := len(m.freeGSlices); k > 0 {
			s = m.freeGSlices[k-1]
			m.freeGSlices[k-1] = nil
			m.freeGSlices = m.freeGSlices[:k-1]
		}
	}
	m.queuedAt[txn] = append(s, g)
}

// unnoteQueued removes the index record of txn's queued request on g,
// recycling the slice once txn has no queued requests left.
func (m *Manager) unnoteQueued(txn TxnID, g GranuleID) {
	s := m.queuedAt[txn]
	for i, x := range s {
		if x == g {
			s[i] = s[len(s)-1]
			s = s[:len(s)-1]
			break
		}
	}
	if len(s) == 0 {
		delete(m.queuedAt, txn)
		if s != nil {
			m.freeGSlices = append(m.freeGSlices, s)
		}
		return
	}
	m.queuedAt[txn] = s
}

// NewManager creates a detection-discipline lock manager. onGrant may be
// nil if the caller never lets requests wait (as in some unit tests).
func NewManager(policy VictimPolicy, onGrant func(txn TxnID, g GranuleID)) *Manager {
	return NewManagerWithDiscipline(Detect, policy, onGrant)
}

// NewManagerWithDiscipline creates a manager with an explicit deadlock
// discipline. The victim policy applies to Detect only.
func NewManagerWithDiscipline(d Discipline, policy VictimPolicy, onGrant func(txn TxnID, g GranuleID)) *Manager {
	return &Manager{
		table:      make(map[GranuleID]*entry),
		held:       make(map[TxnID]map[GranuleID]Mode),
		policy:     policy,
		discipline: d,
		ts:         make(map[TxnID]int64),
		queuedAt:   make(map[TxnID][]GranuleID),
		seenBuf:    make(map[TxnID]struct{}),
		onGrant:    onGrant,
	}
}

// RegisterTxn records a transaction's prevention timestamp (smaller =
// older). Wait-die and wound-wait require the timestamp to survive
// restarts, so re-executions of the same user transaction must register
// the original timestamp. Unregistered transactions default to their id.
func (m *Manager) RegisterTxn(txn TxnID, timestamp int64) {
	m.ts[txn] = timestamp
}

// timestampOf returns the prevention timestamp.
func (m *Manager) timestampOf(txn TxnID) int64 {
	if t, ok := m.ts[txn]; ok {
		return t
	}
	return int64(txn)
}

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// HeldBy returns the locks txn currently holds, as a granule->mode map.
// The returned map is the manager's own; callers must not mutate it.
func (m *Manager) HeldBy(txn TxnID) map[GranuleID]Mode { return m.held[txn] }

// NumHeld returns the number of granules txn has locked.
func (m *Manager) NumHeld(txn TxnID) int { return len(m.held[txn]) }

// Holds reports whether txn holds granule g in a mode covering want.
func (m *Manager) Holds(txn TxnID, g GranuleID, want Mode) bool {
	have, ok := m.held[txn][g]
	if !ok {
		return false
	}
	return want == Shared || have == Exclusive
}

// Request asks for granule g in the given mode on behalf of txn. A
// transaction may have at most one outstanding (waiting) request at a time:
// after a Wait outcome it must not issue further requests until onGrant
// fires or it is aborted — which mirrors the testbed, where a blocked DM
// server does no further work for the transaction.
//
// Returns Granted if acquired now; Wait if queued (the manager calls
// onGrant(txn, g) when it is eventually granted); Deadlock if the
// discipline decided the requester must abort (a detected cycle with the
// requester as victim, or a wait-die death). The victims slice lists other
// transactions the caller must abort: the non-requester victim of a
// detected cycle, or the younger holders and waiters wounded under
// wound-wait. Abort them with ReleaseAll (the testbed interrupts their
// processes), which may in turn grant this request through onGrant.
func (m *Manager) Request(txn TxnID, g GranuleID, mode Mode) (out Outcome, victims []TxnID) {
	m.stats.Requests++
	e := m.table[g]
	if e == nil {
		e = m.newEntry()
		m.table[g] = e
	}

	// Re-entrant: already held in a sufficient mode.
	if have, ok := e.grantedOf(txn); ok {
		if mode == Shared || have == Exclusive {
			m.stats.Immediate++
			return Granted, nil
		}
		// Upgrade S -> X.
		m.stats.Upgrades++
		if m.soleHolder(e, txn) {
			e.setGranted(txn, Exclusive)
			m.held[txn][g] = Exclusive
			m.stats.Immediate++
			return Granted, nil
		}
		return m.block(e, txn, g, mode, true)
	}

	if m.grantableNow(e, txn, mode) {
		m.grant(e, txn, g, mode)
		m.stats.Immediate++
		return Granted, nil
	}
	return m.block(e, txn, g, mode, false)
}

// blockers returns the transactions a request by txn in the given mode
// waits for once queued: the holders of e whose mode conflicts with it
// and, for a request joining the tail of the queue, the conflicting
// requests queued ahead of it, which FCFS grants first. An upgrade goes to
// the head of the queue, so only holders block it.
func (m *Manager) blockers(e *entry, txn TxnID, mode Mode, upgrade bool) []TxnID {
	var out []TxnID
	for _, gr := range e.granted {
		if gr.txn != txn && !compatible(mode, gr.mode) {
			out = append(out, gr.txn)
		}
	}
	if !upgrade {
		for _, r := range e.queue {
			if r.txn != txn && !compatible(mode, r.mode) {
				out = append(out, r.txn)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// block handles a request that cannot be granted now, applying the
// manager's deadlock discipline.
func (m *Manager) block(e *entry, txn TxnID, g GranuleID, mode Mode, upgrade bool) (Outcome, []TxnID) {
	switch m.discipline {
	case WaitDie:
		// Non-preemptive: the requester may wait only if it is older than
		// every transaction it would wait for; otherwise it dies.
		myTS := m.timestampOf(txn)
		for _, h := range m.blockers(e, txn, mode, upgrade) {
			if myTS >= m.timestampOf(h) {
				m.stats.Deadlocks++
				return Deadlock, nil
			}
		}
		return m.enqueue(e, txn, g, mode, upgrade)
	case WoundWait:
		// Preemptive: the requester wounds every younger transaction it
		// would wait for, holder or queued ahead, then waits.
		myTS := m.timestampOf(txn)
		var wounds []TxnID
		for _, h := range m.blockers(e, txn, mode, upgrade) {
			if m.timestampOf(h) > myTS {
				wounds = append(wounds, h)
			}
		}
		if len(wounds) > 0 {
			// Any wait-for cycle through this request runs through a
			// wounded transaction and dies with it, so skip the detection
			// backstop and queue directly.
			m.stats.Deadlocks += int64(len(wounds))
			m.pushRequest(e, g, m.newRequest(txn, mode, upgrade))
			m.stats.Waits++
			return Wait, wounds
		}
		return m.enqueue(e, txn, g, mode, upgrade)
	default:
		return m.enqueue(e, txn, g, mode, upgrade)
	}
}

// soleHolder reports whether txn is the only holder of e.
func (m *Manager) soleHolder(e *entry, txn TxnID) bool {
	return len(e.granted) == 1 && e.granted[0].txn == txn
}

// grantableNow reports whether a fresh request can be granted immediately:
// compatible with every holder and no waiter queued ahead (FCFS fairness).
func (m *Manager) grantableNow(e *entry, txn TxnID, mode Mode) bool {
	if len(e.queue) > 0 {
		return false
	}
	for _, gr := range e.granted {
		if gr.txn == txn {
			continue
		}
		if !compatible(mode, gr.mode) {
			return false
		}
	}
	return true
}

// grant records txn as a holder of g.
func (m *Manager) grant(e *entry, txn TxnID, g GranuleID, mode Mode) {
	if have, ok := e.grantedOf(txn); !ok || mode == Exclusive && have == Shared {
		e.setGranted(txn, mode)
	}
	hm := m.held[txn]
	if hm == nil {
		if k := len(m.freeHeld); k > 0 {
			hm = m.freeHeld[k-1]
			m.freeHeld[k-1] = nil
			m.freeHeld = m.freeHeld[:k-1]
		} else {
			hm = make(map[GranuleID]Mode)
		}
		m.held[txn] = hm
	}
	if have, ok := hm[g]; !ok || mode == Exclusive && have == Shared {
		hm[g] = mode
	}
}

// enqueue queues the request and runs cycle detection — the primary
// mechanism under Detect, and a liveness backstop under the prevention
// disciplines (an upgrade, which jumps the queue, can arrange waits the
// timestamp rules did not foresee).
func (m *Manager) enqueue(e *entry, txn TxnID, g GranuleID, mode Mode, upgrade bool) (Outcome, []TxnID) {
	m.pushRequest(e, g, m.newRequest(txn, mode, upgrade))
	m.stats.Waits++

	cycle := m.findCycle(txn)
	if cycle == nil {
		return Wait, nil
	}
	m.stats.Deadlocks++
	v := m.chooseVictim(txn, cycle)
	if v == txn || m.discipline != Detect {
		// Withdraw the request; the caller aborts itself. Prevention
		// disciplines always sacrifice the requester on the backstop path.
		m.removeFromQueue(e, g, txn)
		return Deadlock, nil
	}
	// Someone else dies. The caller must abort v (ReleaseAll(v)), which
	// may immediately grant this request; we still report Wait and let
	// the grant arrive through onGrant.
	return Wait, []TxnID{v}
}

// chooseVictim applies the victim policy to the detected cycle.
func (m *Manager) chooseVictim(requester TxnID, cycle []TxnID) TxnID {
	switch m.policy {
	case VictimYoungest:
		v := cycle[0]
		for _, t := range cycle[1:] {
			if t > v {
				v = t
			}
		}
		return v
	case VictimFewestLocks:
		v := cycle[0]
		for _, t := range cycle[1:] {
			if len(m.held[t]) < len(m.held[v]) {
				v = t
			}
		}
		return v
	default:
		return requester
	}
}

// removeFromQueue deletes txn's queued request on e (granule g), if any.
func (m *Manager) removeFromQueue(e *entry, g GranuleID, txn TxnID) {
	for i, r := range e.queue {
		if r.txn == txn {
			n := len(e.queue)
			copy(e.queue[i:], e.queue[i+1:])
			e.queue[n-1] = nil
			e.queue = e.queue[:n-1]
			m.freeRequest(r)
			m.unnoteQueued(txn, g)
			return
		}
	}
}

// ReleaseAll drops every lock and queued request of txn (transaction end or
// abort) and dispatches newly grantable waiters. Granules are processed in
// sorted order so grant sequences are deterministic.
func (m *Manager) ReleaseAll(txn TxnID) {
	held := m.heldBuf[:0]
	for g := range m.held[txn] {
		held = append(held, g)
	}
	slices.Sort(held)
	m.heldBuf = held
	for _, g := range held {
		e := m.table[g]
		e.dropGranted(txn)
		m.dispatch(e, g)
		m.cleanup(e, g)
	}
	if hm, ok := m.held[txn]; ok {
		clear(hm)
		m.freeHeld = append(m.freeHeld, hm)
	}
	delete(m.held, txn)
	delete(m.ts, txn)
	// Withdraw any still-queued requests (a victim may be waiting somewhere).
	// The index slice is copied because removeFromQueue mutates it.
	queued := append(m.queuedBuf[:0], m.queuedAt[txn]...)
	slices.Sort(queued)
	m.queuedBuf = queued
	for _, g := range queued {
		e := m.table[g]
		m.removeFromQueue(e, g, txn)
		m.dispatch(e, g)
		m.cleanup(e, g)
	}
}

// cleanup recycles empty lock-table entries; both slices keep their
// capacity for the next use.
func (m *Manager) cleanup(e *entry, g GranuleID) {
	if len(e.granted) == 0 && len(e.queue) == 0 {
		delete(m.table, g)
		e.queue = e.queue[:0]
		m.freeEntries = append(m.freeEntries, e)
	}
}

// dispatch grants queued requests in FCFS order while they are compatible
// with the granted set.
func (m *Manager) dispatch(e *entry, g GranuleID) {
	for len(e.queue) > 0 {
		req := e.queue[0]
		ok := true
		for _, gr := range e.granted {
			if gr.txn == req.txn {
				continue
			}
			if !compatible(req.mode, gr.mode) {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		n := len(e.queue)
		copy(e.queue, e.queue[1:])
		e.queue[n-1] = nil
		e.queue = e.queue[:n-1]
		txn := req.txn
		m.unnoteQueued(txn, g)
		m.grant(e, txn, g, req.mode)
		m.freeRequest(req)
		if m.onGrant != nil {
			m.onGrant(txn, g)
		}
	}
}

// WaitsFor returns the distinct transactions that txn is waiting on: the
// incompatible holders of every granule where txn has a queued request,
// plus incompatible requests queued ahead of it (they will hold the lock
// before txn can). Sorted for determinism.
func (m *Manager) WaitsFor(txn TxnID) []TxnID {
	seen := m.seenBuf
	clear(seen)
	for _, g := range m.queuedAt[txn] {
		e := m.table[g]
		pos := -1
		var mode Mode
		for i, r := range e.queue {
			if r.txn == txn {
				pos = i
				mode = r.mode
				break
			}
		}
		if pos < 0 {
			continue
		}
		for _, gr := range e.granted {
			if gr.txn == txn {
				continue
			}
			if !compatible(mode, gr.mode) || mode == Exclusive || gr.mode == Exclusive {
				seen[gr.txn] = struct{}{}
			}
		}
		for i := 0; i < pos; i++ {
			ahead := e.queue[i]
			if ahead.txn != txn && (!compatible(mode, ahead.mode)) {
				seen[ahead.txn] = struct{}{}
			}
		}
	}
	out := make([]TxnID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Waiting reports whether txn has a queued (ungranted) request.
func (m *Manager) Waiting(txn TxnID) bool { return len(m.queuedAt[txn]) > 0 }

// findCycle searches the wait-for graph for a cycle reachable from start
// that includes start, returning the cycle members (nil if none). Depth-
// first search over WaitsFor edges.
func (m *Manager) findCycle(start TxnID) []TxnID {
	var path []TxnID
	onPath := make(map[TxnID]struct{})
	visited := make(map[TxnID]struct{})
	var dfs func(t TxnID) []TxnID
	dfs = func(t TxnID) []TxnID {
		path = append(path, t)
		onPath[t] = struct{}{}
		defer func() {
			path = path[:len(path)-1]
			delete(onPath, t)
		}()
		for _, next := range m.WaitsFor(t) {
			if next == start {
				cycle := make([]TxnID, len(path))
				copy(cycle, path)
				return cycle
			}
			if _, seen := visited[next]; seen {
				continue
			}
			if _, on := onPath[next]; on {
				continue
			}
			if c := dfs(next); c != nil {
				return c
			}
			visited[next] = struct{}{}
		}
		return nil
	}
	return dfs(start)
}

// LockedGranules returns the number of granules with at least one holder.
func (m *Manager) LockedGranules() int { return len(m.table) }

// WaitEdges returns every wait-for edge at this site as (waiter, holder)
// pairs, for the distributed probe algorithm. Sorted for determinism.
func (m *Manager) WaitEdges() [][2]TxnID {
	waiters := make([]TxnID, 0, len(m.queuedAt))
	for t := range m.queuedAt {
		waiters = append(waiters, t)
	}
	slices.Sort(waiters)
	var out [][2]TxnID
	for _, w := range waiters {
		for _, h := range m.WaitsFor(w) {
			out = append(out, [2]TxnID{w, h})
		}
	}
	return out
}
