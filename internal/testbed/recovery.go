package testbed

import "carat/internal/wal"

// RecoveryReport summarizes a simulated crash-and-restart of the whole
// distributed system.
type RecoveryReport struct {
	// Losers[i] lists transactions undone at node i by presumed abort
	// (no durable commit, abort or prepared record).
	Losers [][]int64
	// InDoubt[i] lists transactions that were prepared at node i and had
	// to be resolved against their coordinator's log; Resolved maps each
	// to the outcome applied (true = commit).
	InDoubt  [][]int64
	Resolved map[int64]bool
}

// CrashRecover simulates every node losing volatile memory at the current
// simulation time and running restart recovery: each site undoes its
// losers from the durable journal, and in-doubt two-phase-commit branches
// are resolved by consulting the coordinator's durable log (commit record
// present -> commit; otherwise abort), as the centralized protocol
// prescribes. Call after Run; the simulation must not be resumed
// afterwards.
func (s *System) CrashRecover() RecoveryReport {
	rep := RecoveryReport{
		Losers:   make([][]int64, len(s.nodes)),
		InDoubt:  make([][]int64, len(s.nodes)),
		Resolved: make(map[int64]bool),
	}
	// Phase 1: local recovery at every site.
	type doubt struct {
		node *node
		gid  int64
	}
	var doubts []doubt
	for i, n := range s.nodes {
		losers, inDoubt := n.journal.Recover(n.store)
		rep.Losers[i] = losers
		rep.InDoubt[i] = inDoubt
		for _, gid := range inDoubt {
			doubts = append(doubts, doubt{node: n, gid: gid})
		}
	}
	// Phase 2: resolve in-doubt branches against the coordinator's log.
	for _, d := range doubts {
		commit := s.coordinatorCommitted(d.gid)
		rep.Resolved[d.gid] = commit
		d.node.journal.ResolveInDoubt(d.gid, commit, d.node.store)
	}
	return rep
}

// coordinatorCommitted reports whether any node's durable log holds a
// commit record for gid — the centralized 2PC recovery query. (The
// coordinator's identity is implicit: only it writes the commit record.)
func (s *System) coordinatorCommitted(gid int64) bool {
	for _, n := range s.nodes {
		flushed := n.journal.FlushedLSN()
		for r := range n.journal.All() {
			if r.Txn == gid && r.Kind == wal.Commit && r.LSN <= flushed {
				return true
			}
		}
	}
	return false
}
