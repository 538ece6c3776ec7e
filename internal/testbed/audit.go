package testbed

import (
	"fmt"
	"sort"

	"carat/internal/wal"
)

// Auditor collects the trace of a run and checks hard correctness
// invariants against the system's frozen post-run state — the chaos
// harness's oracle. Install Record as Config.Trace, run the system, then
// call Audit with the System (after Run; its teardown freezes journals,
// stores and the in-flight registry exactly as a crash would).
//
// The invariants:
//
//   - lifecycle: every gid begins exactly once, and no gid both commits
//     and aborts (trace-level 2PC atomicity);
//   - conservation: every begun gid is committed, aborted, or still
//     in flight at drain — no transaction vanishes;
//   - journal atomicity: no gid has a durable commit record at one site
//     and an abort record at another, and a slave-site commit record
//     implies a durable coordinator commit;
//   - durability: every committed gid has a durable commit record at its
//     home site, and is never a restart-recovery loser at any site where
//     it journaled durable before-images (its updates survive replay);
//   - replica agreement (replication runs only): after quiescence every
//     live, caught-up copy of a granule names the same last committed
//     writer.
type Auditor struct {
	events []TraceEvent
}

// NewAuditor creates an empty auditor.
func NewAuditor() *Auditor { return &Auditor{} }

// Record appends one trace event; install it as Config.Trace.
func (a *Auditor) Record(ev TraceEvent) { a.events = append(a.events, ev) }

// Events returns the collected trace.
func (a *Auditor) Events() []TraceEvent { return a.events }

// Audit checks every invariant and returns one message per violation
// (empty means the run was clean).
func (a *Auditor) Audit(sys *System) []string {
	var bad []string
	begun := make(map[int64]int)
	committed := make(map[int64]NodeID) // gid -> home (EvCommitted's node)
	aborted := make(map[int64]bool)
	for _, ev := range a.events {
		switch ev.Ev {
		case EvBegin:
			begun[ev.Txn]++
		case EvCommitted:
			committed[ev.Txn] = ev.Node
		case EvAborted:
			aborted[ev.Txn] = true
		}
	}

	// Lifecycle.
	for gid, n := range begun {
		if n > 1 {
			bad = append(bad, fmt.Sprintf("lifecycle: txn %d began %d times", gid, n))
		}
	}
	for gid := range committed {
		if begun[gid] == 0 {
			bad = append(bad, fmt.Sprintf("lifecycle: txn %d committed without beginning", gid))
		}
		if aborted[gid] {
			bad = append(bad, fmt.Sprintf("atomicity: txn %d both committed and aborted", gid))
		}
	}

	// Conservation: begun = committed + aborted + in-flight-at-drain.
	for gid := range begun {
		if _, ok := committed[gid]; ok {
			continue
		}
		if aborted[gid] {
			continue
		}
		if _, inFlight := sys.reg[gid]; inFlight {
			continue
		}
		bad = append(bad, fmt.Sprintf("conservation: txn %d began but neither finished nor remains in flight", gid))
	}

	// Journal-level checks against each site's frozen log.
	type siteLog struct {
		durableCommit map[int64]bool
		anyCommit     map[int64]bool
		anyAbort      map[int64]bool
		durableLoser  map[int64]bool // durable before-images, no durable resolution or prepare
	}
	logs := make([]siteLog, len(sys.nodes))
	for i, nd := range sys.nodes {
		sl := siteLog{
			durableCommit: make(map[int64]bool),
			anyCommit:     make(map[int64]bool),
			anyAbort:      make(map[int64]bool),
			durableLoser:  make(map[int64]bool),
		}
		flushed := nd.journal.FlushedLSN()
		durablePrepared := make(map[int64]bool)
		durableUndo := make(map[int64]bool)
		for r := range nd.journal.All() {
			durable := r.LSN <= flushed
			switch r.Kind {
			case wal.Commit:
				sl.anyCommit[r.Txn] = true
				if durable {
					sl.durableCommit[r.Txn] = true
				}
			case wal.Abort:
				sl.anyAbort[r.Txn] = true
			case wal.Prepared:
				if durable {
					durablePrepared[r.Txn] = true
				}
			case wal.BeforeImage:
				if durable {
					durableUndo[r.Txn] = true
				}
			}
		}
		for gid := range durableUndo {
			if !sl.durableCommit[gid] && !sl.anyAbort[gid] && !durablePrepared[gid] {
				sl.durableLoser[gid] = true
			}
		}
		logs[i] = sl
	}

	// Journal atomicity across sites.
	gids := make([]int64, 0, len(begun))
	for gid := range begun {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		var durableAt, abortAt []int
		for i := range logs {
			if logs[i].durableCommit[gid] {
				durableAt = append(durableAt, i)
			}
			if logs[i].anyAbort[gid] {
				abortAt = append(abortAt, i)
			}
		}
		if len(durableAt) > 0 && len(abortAt) > 0 {
			bad = append(bad, fmt.Sprintf(
				"atomicity: txn %d has a durable commit record at site(s) %v and an abort record at site(s) %v",
				gid, durableAt, abortAt))
		}
	}

	// Durability of every committed transaction.
	for _, gid := range gids {
		home, ok := committed[gid]
		if !ok {
			continue
		}
		if !logs[home].durableCommit[gid] {
			bad = append(bad, fmt.Sprintf(
				"durability: txn %d committed but has no durable commit record at home site %d", gid, home))
		}
		for i := range logs {
			if NodeID(i) == home {
				continue
			}
			if logs[i].anyCommit[gid] && !logs[home].durableCommit[gid] {
				bad = append(bad, fmt.Sprintf(
					"atomicity: txn %d has a slave commit record at site %d without a durable coordinator commit", gid, i))
			}
			if logs[i].durableLoser[gid] {
				bad = append(bad, fmt.Sprintf(
					"durability: txn %d committed but restart recovery at site %d would undo its updates", gid, i))
			}
		}
	}

	bad = append(bad, a.auditReplicas(sys)...)
	bad = append(bad, a.auditPartitions(sys)...)
	return bad
}

// auditPartitions checks the split-brain reconciliation invariant: once the
// last partition has healed and the drain has had its margin to run, no up
// site may still owe queued cooperative terminations or pending replica
// applies. A run torn down mid-partition (or inside the drain margin) is
// exempt — that state is exactly what the heal would have reconciled.
func (a *Auditor) auditPartitions(sys *System) []string {
	f := sys.faults
	if f == nil || f.part == nil || f.part.Active() {
		return nil
	}
	if sys.env.Now()-f.lastHealT < healDrainMarginMS {
		return nil
	}
	var bad []string
	for i, nd := range sys.nodes {
		if nd.down {
			continue
		}
		if n := len(f.term[NodeID(i)]); n > 0 {
			bad = append(bad, fmt.Sprintf(
				"partition: site %d still owes %d queued terminations after the heal", i, n))
		}
		if sys.repl != nil {
			if n := len(sys.repl.pending[NodeID(i)]); n > 0 {
				bad = append(bad, fmt.Sprintf(
					"partition: site %d still has %d pending replica applies after the heal", i, n))
			}
		}
	}
	return bad
}

// auditReplicas checks the replica-agreement invariant: every live copy of
// a granule names the same last committed writer. Copies at down sites are
// skipped (their version maps are gone and restart recovery has not rebuilt
// them), as are granules whose claimed writer is still in flight — the
// run's teardown can freeze a writer mid-propagation, exactly as a real
// crash would, and its catch-up belongs to a restart that never comes.
func (a *Auditor) auditReplicas(sys *System) []string {
	if sys.repl == nil {
		return nil
	}
	var bad []string
	blocks := make(map[int]bool)
	for _, nd := range sys.nodes {
		if nd.down {
			continue
		}
		for b := range nd.replVersion {
			blocks[b] = true
		}
	}
	sorted := make([]int, 0, len(blocks))
	for b := range blocks {
		sorted = append(sorted, b)
	}
	sort.Ints(sorted)
	granules := sys.cfg.Layout.Granules
	for _, b := range sorted {
		if pendingApplyFor(sys, b) {
			// A catch-up apply for this block is still queued somewhere
			// (teardown froze the run before the restart or heal that would
			// drain it): the copies legitimately disagree.
			continue
		}
		owner := b/granules - 1
		g := b % granules
		want := int64(-1)
		inflight := false
		disagree := false
		var views []string
		for _, sid := range sys.repl.place.Replicas(owner, g) {
			nd := sys.nodes[sid]
			if nd.down {
				continue
			}
			v := nd.replVersion[b]
			if _, fly := sys.reg[v]; fly && v != 0 {
				inflight = true
			}
			if want == -1 {
				want = v
			} else if v != want {
				disagree = true
			}
			views = append(views, fmt.Sprintf("site %d -> txn %d", sid, v))
		}
		if disagree && !inflight {
			bad = append(bad, fmt.Sprintf(
				"replica-divergence: granule %d of site %d: live copies disagree on the last committed writer (%v)",
				g, owner, views))
		}
	}
	return bad
}

// pendingApplyFor reports whether any site still has a queued catch-up
// apply for block b.
func pendingApplyFor(sys *System, b int) bool {
	for _, q := range sys.repl.pending {
		for _, a := range q {
			if a.block == b {
				return true
			}
		}
	}
	return false
}
