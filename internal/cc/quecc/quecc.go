// Package quecc implements a queue-oriented deterministic concurrency
// control in the spirit of QueCC (Qadah & Sadoghi, arXiv:1910.10350):
// plan-then-execute. At submission the planner declares every granule a
// transaction will touch at each site, entering a claim into that
// granule's priority queue ordered by transaction id (the submission
// order — older is higher priority). The execution phase then drains the
// queues: an access is admitted the moment no conflicting higher-priority
// claim remains ahead of it, and blocks otherwise until predecessors
// finish. There are no locks, no lock-order races, and no deadlocks by
// construction: every wait points from a younger transaction to an older
// one, so the waits-for graph is acyclic and the Chandy–Misra probe
// machinery is never armed.
//
// Claims are registered in transaction-id order (the testbed plans in the
// same kernel step that assigns the id), which is what makes the
// admission rule safe: an older transaction's claim is always queued
// before any younger conflicting transaction can be admitted. The one
// exception is a late claim — an access to a granule outside the declared
// plan, which in the testbed only happens for shared failed-over reads in
// the replica namespace; those insert at the transaction's priority on
// the fly and, being reads among reads, cannot violate exclusivity.
package quecc

import "carat/internal/cc"

// claim is one transaction's declared intent on a granule.
type claim struct {
	txn     cc.TxnID
	write   bool
	waiting bool // the transaction is parked on this claim
}

// Scheduler is one site's deterministic planner + execution queues.
type Scheduler struct {
	onGrant func(cc.TxnID)
	// queues holds each granule's claims in ascending transaction id —
	// priority order. Ids increase monotonically, so planner inserts are
	// amortized appends.
	queues map[cc.GranuleID][]claim
	// txns records each live transaction's claimed granules in claim
	// order, so Finish releases deterministically without map iteration.
	txns map[cc.TxnID][]cc.GranuleID
}

// NewScheduler creates an empty scheduler. onGrant is called when a
// parked transaction's blocked claim becomes admissible.
func NewScheduler(onGrant func(cc.TxnID)) *Scheduler {
	return &Scheduler{
		onGrant: onGrant,
		queues:  make(map[cc.GranuleID][]claim),
		txns:    make(map[cc.TxnID][]cc.GranuleID),
	}
}

// Live returns the number of transactions holding claims.
func (s *Scheduler) Live() int { return len(s.txns) }

// Plan declares that txn will access granule g (write=true for updates).
// Claims for the same granule merge, upgrading read to write.
func (s *Scheduler) Plan(txn cc.TxnID, g cc.GranuleID, write bool) {
	q := s.queues[g]
	for i := range q {
		if q[i].txn == txn {
			q[i].write = q[i].write || write
			return
		}
	}
	// Insert in priority order; ids are monotone so this is normally an
	// append, and a late claim walks back a few slots at most.
	pos := len(q)
	for pos > 0 && q[pos-1].txn > txn {
		pos--
	}
	q = append(q, claim{})
	copy(q[pos+1:], q[pos:])
	q[pos] = claim{txn: txn, write: write}
	s.queues[g] = q
	s.txns[txn] = append(s.txns[txn], g)
}

// admissible reports whether the claim at index i of g's queue conflicts
// with no claim ahead of it (all higher-priority claims are reads, or it
// is itself a read among reads).
func admissible(q []claim, i int) bool {
	for j := 0; j < i; j++ {
		if q[j].write || q[i].write {
			return false
		}
	}
	return true
}

// Begin is a planner no-op: priority is the transaction id itself.
func (s *Scheduler) Begin(cc.TxnID, int64) {}

// Access asks to execute txn's claimed access on g. An access outside the
// declared plan registers a late claim at the transaction's priority.
func (s *Scheduler) Access(txn cc.TxnID, g cc.GranuleID, write bool) cc.Decision {
	q := s.queues[g]
	i := -1
	for j := range q {
		if q[j].txn == txn {
			i = j
			break
		}
	}
	if i < 0 {
		s.Plan(txn, g, write)
		q = s.queues[g]
		for j := range q {
			if q[j].txn == txn {
				i = j
				break
			}
		}
	} else if write && !q[i].write {
		q[i].write = true
	}
	if admissible(q, i) {
		return cc.Decision{Outcome: cc.Grant}
	}
	q[i].waiting = true
	return cc.Decision{Outcome: cc.Block}
}

// Validate is a no-op: deterministic execution admits only conflict-free
// accesses, so there is nothing to validate at commit.
func (s *Scheduler) Validate(cc.TxnID) bool { return true }

// Finish removes every claim txn holds (commit or abort) and wakes the
// parked transactions whose blocked claims become admissible, in queue —
// priority — order.
func (s *Scheduler) Finish(txn cc.TxnID) {
	grans, ok := s.txns[txn]
	if !ok {
		return
	}
	delete(s.txns, txn)
	for _, g := range grans {
		q := s.queues[g]
		for i := range q {
			if q[i].txn == txn {
				q = append(q[:i], q[i+1:]...)
				break
			}
		}
		if len(q) == 0 {
			delete(s.queues, g)
			continue
		}
		s.queues[g] = q
		for i := range q {
			if q[i].waiting && admissible(q, i) {
				q[i].waiting = false
				s.onGrant(q[i].txn)
			}
		}
	}
}
