package testbed

import (
	"carat/internal/disk"
	"carat/internal/lock"
	"carat/internal/repl"
	"carat/internal/sim"
)

// replStreamSalt labels the replica-placement substream of the workload RNG.
// Split is pure, so deriving it perturbs no other stream: enabling
// replication never shifts the node or user draws.
const replStreamSalt = 0x5EB11CA

// pendingApply is one write-all-available catch-up entry: a committed
// writer's update that must still reach a replica whose site was down when
// the writer propagated.
type pendingApply struct {
	block int
	gid   int64
}

// replState is the per-run replication machinery: the validated policy, the
// deterministic replica placement, and the per-site catch-up queues.
type replState struct {
	policy repl.Policy
	place  *repl.Placement
	// pending queues catch-up applies per down site; the site's restart
	// recovery drains them (charging the log writes) before it rejoins.
	pending map[NodeID][]pendingApply
	// drainer is the process currently draining each site's queue. A heal
	// drain and restart recovery can both reach the same queue; only the
	// latest claimant pops, so every queued apply is popped exactly once.
	drainer map[NodeID]*sim.Proc
}

// initRepl installs an active replication policy. Called from New after the
// nodes exist, before user processes are spawned.
func (s *System) initRepl() {
	pol := s.cfg.Replication
	s.repl = &replState{
		policy:  pol,
		place:   repl.NewPlacement(len(s.nodes), s.cfg.Layout.Granules, pol.Factor, s.rnd.Split(replStreamSalt)),
		pending: make(map[NodeID][]pendingApply),
		drainer: make(map[NodeID]*sim.Proc),
	}
}

// replBlock maps granule g of site owner into the replica lock/journal
// namespace — disjoint from every site's primary granule ids, so a
// failed-over read never contends with the serving site's own data.
func (s *System) replBlock(owner NodeID, g int) int {
	return int(lock.ReplicaGranule(int(owner), s.cfg.Layout.Granules, g))
}

// replReadFailover reports whether reads of the kind may be served at a
// surviving replica while the primary's site is down or unreachable. A home
// site whose failure detector cannot see a majority refuses to fail over:
// on the minority side of a partition its reads could be stale relative to
// writes committing on the majority side.
func (s *System) replReadFailover(home NodeID, kind TxnKind) bool {
	return s.repl != nil && !kind.Update() && s.majorityReachable(home)
}

// replQuorum reports whether an access in the mode must confirm against a
// read quorum of the replica set.
func (s *System) replQuorum(mode lock.Mode) bool {
	return s.repl != nil && s.repl.policy.Read == repl.ReadQuorum && mode == lock.Shared
}

// failoverSite returns the first replica of granule g of site owner — in
// placement order, deterministic, no runtime draws — that is up, reachable
// from home, and on the majority side of any partition. A minority-side
// replica refuses failover reads: it cannot rule out a newer committed
// write on the majority side. Returns nil when no copy qualifies.
func (s *System) failoverSite(home, owner NodeID, g int) *node {
	for _, sid := range s.repl.place.Replicas(int(owner), g) {
		nd := s.nodes[sid]
		if nd.down || !s.reachable(home, nd.id) {
			continue
		}
		if !s.majorityReachable(nd.id) {
			continue
		}
		return nd
	}
	return nil
}

// queueReplicaApply parks a committed writer's apply for a down site.
func (s *System) queueReplicaApply(id NodeID, block int, gid int64) {
	s.repl.pending[id] = append(s.repl.pending[id], pendingApply{block: block, gid: gid})
}

// pendingReplApply reports whether an apply for the block is already queued
// at the site. While it is, later committed writes to the same block must
// park behind it — a direct apply would be overtaken by the older queued
// write when the catch-up drain reaches it. Blocks with nothing queued are
// free to apply directly; per-block order is all replica agreement needs.
func (s *System) pendingReplApply(id NodeID, blk int) bool {
	for _, a := range s.repl.pending[id] {
		if a.block == blk {
			return true
		}
	}
	return false
}

// recoverReplicas is the replication half of restart recovery: the replica
// version map (volatile, lost at the crash) is rebuilt by replaying the
// durable replica-apply records, then the site catches up on the applies
// that arrived while it was down, journaling and charging each. The drain
// loops because the catch-up I/O itself takes simulated time, during which
// new applies may be queued.
func (s *System) recoverReplicas(p *sim.Proc, nd *node) {
	nd.replVersion = nd.journal.ReplicaVersions()
	s.drainReplicaApplies(p, nd)
}

// drainReplicaApplies drains the site's catch-up queue, journaling and
// charging each apply. Shared by restart recovery and the partition-heal
// drain; the latter must NOT rebuild the version map first — the site never
// lost its volatile state, only its connectivity.
func (s *System) drainReplicaApplies(p *sim.Proc, nd *node) {
	// Restart recovery drains while the site is still marked down (markUp
	// follows recovery); a heal drain starts with the site up.
	downAtStart := nd.down
	s.repl.drainer[nd.id] = p
	for len(s.repl.pending[nd.id]) > 0 {
		// Peek, apply, then pop: the entry stays visible in the queue while
		// its log write holds, so a committer propagating during the drain
		// sees a non-empty queue and parks its apply behind it instead of
		// overtaking the older queued write with a direct one.
		a := s.repl.pending[nd.id][0]
		nd.journal.LogReplicaApply(a.gid, a.block)
		must(nd, nd.logDisk.Do(p, disk.LogWrite, 0))
		if (nd.down && !downAtStart) || s.repl.drainer[nd.id] != p {
			// The site crashed while the log write held, or restart
			// recovery has already claimed the queue: leave the entry and
			// the rest of the queue to restart recovery's own drain.
			return
		}
		nd.replVersion[a.block] = a.gid
		nd.replOpen.ReplicaApplies++
		s.repl.pending[nd.id] = s.repl.pending[nd.id][1:]
	}
	delete(s.repl.pending, nd.id)
}

// noteReplWrite records one granule write for post-commit propagation,
// deduplicated: a transaction re-writing a granule propagates it once.
func (st *txnState) noteReplWrite(owner NodeID, g int) {
	for _, w := range st.replWrites {
		if w.owner == owner && w.granule == g {
			return
		}
	}
	st.replWrites = append(st.replWrites, replWrite{owner: owner, granule: g})
}

// noteFailover registers a replica site serving a failed-over read: it
// becomes a crash-dooming participant, and — unless the commit/abort
// protocol already releases this transaction's locks there (it allocated the
// site's DM during INIT) — is remembered for the end-of-transaction lock
// release. The serving site can be the granules' own restarted primary: a
// remote that was down at INIT stays on the failover path for the whole
// submission, so its replica locks are released here, never by the protocol.
func (st *txnState) noteFailover(serve *node) {
	if !st.hasParticipant(serve.id) {
		st.parts = append(st.parts, serve.id)
	}
	for _, fs := range st.failoverNodes {
		if fs == serve {
			return
		}
	}
	for _, nd := range st.protoHeld {
		if nd == serve {
			return
		}
	}
	st.failoverNodes = append(st.failoverNodes, serve)
}

// propagateReplicas pushes a committed writer's updates to every copy of
// every granule it wrote. Called by the coordinator strictly after the
// force-written commit record (the commit point) and strictly before lock
// release at the owner, so applies to one granule arrive in commit order.
// Copies at live sites get a forced replica-apply journal record and the
// log write it costs; copies at down sites are queued for catch-up
// (write-all-available). The primary's own version stamp piggybacks on its
// already-durable commit without extra I/O.
func (u *user) propagateReplicas(p *sim.Proc, st *txnState) {
	sys := u.sys
	if sys.repl == nil || len(st.replWrites) == 0 {
		return
	}
	home := sys.nodes[st.home]
	for _, w := range st.replWrites {
		blk := sys.replBlock(w.owner, w.granule)
		for _, sid := range sys.repl.place.Replicas(int(w.owner), w.granule) {
			nd := sys.nodes[sid]
			if nd.down {
				sys.queueReplicaApply(nd.id, blk, st.gid)
				continue
			}
			if nd.id == w.owner {
				nd.journal.LogReplicaApply(st.gid, blk)
				nd.replVersion[blk] = st.gid
				continue
			}
			if !sys.reachable(home.id, nd.id) {
				// The copy is partitioned away from the coordinator: queue
				// the apply for the heal drain (write-all-available).
				sys.queueReplicaApply(nd.id, blk, st.gid)
				continue
			}
			if sys.pendingReplApply(nd.id, blk) {
				// An older write to this block is still queued for this copy
				// (a catch-up drain is pending or in progress): park behind
				// it, or the direct apply would be overtaken by the stale
				// queued one and the copy would finish on an old version.
				sys.queueReplicaApply(nd.id, blk, st.gid)
				continue
			}
			p.Hold(sys.hop(home.id, nd.id, controlMsgBytes))
			if nd.down || !sys.reachable(home.id, nd.id) || sys.pendingReplApply(nd.id, blk) {
				// The site crashed, the link died, or older applies were
				// queued for it while the apply message was in flight.
				sys.queueReplicaApply(nd.id, blk, st.gid)
				continue
			}
			nd.journal.LogReplicaApply(st.gid, blk)
			must(nd, nd.logDisk.Do(p, disk.LogWrite, 0))
			nd.replVersion[blk] = st.gid
			nd.replOpen.ReplicaApplies++
			sys.trace(st.gid, st.kind, nd.id, EvReplicaApply, blk)
		}
	}
}

// failoverRead serves one request's granules — owned by the crashed site
// owner — at their surviving replicas: for each granule, the first live
// copy in placement order takes the shared lock under the replica
// namespace, performs the read I/O, and answers the coordinator directly.
// Counted as FailoverReads at the serving sites.
func (u *user) failoverRead(p *sim.Proc, st *txnState, owner *node, grans []int) error {
	sys := u.sys
	kind := u.spec.Kind
	home := sys.nodes[st.home]
	for k, g := range grans {
		serve := sys.failoverSite(home.id, owner.id, g)
		if serve == nil {
			// Every copy's site is down, unreachable, or minority-side:
			// the read is unavailable.
			return st.doom(sys.unavailableCause())
		}
		st.noteFailover(serve)
		st.activeNode = serve.id
		rcosts := serve.costsFor(kind)
		p.Hold(sys.hop(home.id, serve.id, requestMsgBytes))
		if serve.down || !sys.reachable(home.id, serve.id) {
			// Crashed — or partitioned away — while the request was in
			// flight.
			if serve.down {
				return st.doom(errSiteCrash)
			}
			return st.doom(errPartitioned)
		}
		must(serve, serve.tmStep(p, rcosts.TMCPU))
		// The request's DM, LR, access, DMIO and I/O steps for this one
		// granule, with the shared lock under the replica namespace.
		c := u.chain(st, serve, false)
		c.grans, c.at, c.owner = grans[k:k+1], reqDM, owner.id
		if err := u.runChain(p, c); err != nil {
			return err
		}
		serve.replOpen.FailoverReads++
		sys.trace(st.gid, kind, serve.id, EvFailoverRead, sys.replBlock(owner.id, g))
		if sys.replQuorum(lock.Shared) {
			if err := u.quorumRead(p, st, serve, owner.id, g); err != nil {
				return err
			}
		}
		p.Hold(sys.hop(serve.id, home.id, responseMsgBytes))
		if st.doomed {
			return errDeadlockVictim
		}
	}
	st.activeNode = st.home
	return nil
}

// quorumRead confirms a shared read against a read quorum of the granule's
// replica set: the serving copy plus version checks at QuorumSize-1 further
// live copies. A version check is a control round trip answered from the
// copy's version map — no data I/O. The read aborts when fewer than a
// quorum of copies are live.
func (u *user) quorumRead(p *sim.Proc, st *txnState, serve *node, owner NodeID, g int) error {
	sys := u.sys
	need := sys.repl.policy.QuorumSize() - 1
	if need <= 0 {
		return nil
	}
	for _, sid := range sys.repl.place.Replicas(int(owner), g) {
		if need == 0 {
			break
		}
		nd := sys.nodes[sid]
		if nd == serve || nd.down || !sys.reachable(serve.id, nd.id) {
			continue
		}
		rcosts := nd.costsFor(u.spec.Kind)
		p.Hold(sys.hop(serve.id, nd.id, controlMsgBytes))
		if nd.down || !sys.reachable(serve.id, nd.id) {
			continue
		}
		must(nd, nd.tmStep(p, rcosts.TMCPU))
		p.Hold(sys.hop(nd.id, serve.id, controlMsgBytes))
		serve.replOpen.QuorumReads++
		need--
	}
	if need > 0 {
		// Fewer than a quorum of copies are reachable.
		return st.doom(sys.unavailableCause())
	}
	return nil
}

// unavailableCause attributes an unavailability abort: to the partition
// while one is in effect, to a crash otherwise.
func (s *System) unavailableCause() error {
	if s.faults != nil && s.faults.part.Active() {
		return errPartitioned
	}
	return errSiteCrash
}

// releaseReplicaReads releases the shared locks failed-over reads took at
// replica sites that are not otherwise participants. Called on both the
// commit and the abort path; a serving site that crashed since lost the
// locks with its volatile state.
func (u *user) releaseReplicaReads(p *sim.Proc, st *txnState) {
	if len(st.failoverNodes) == 0 {
		return
	}
	sys := u.sys
	home := sys.nodes[st.home]
	for _, fs := range st.failoverNodes {
		if fs.down {
			continue
		}
		if !sys.reachable(home.id, fs.id) {
			// The release cannot be delivered: the serving site drops the
			// read locks itself at the heal.
			sys.queueTermination(fs.id, st.gid, true)
			continue
		}
		costs := fs.costsFor(u.spec.Kind)
		p.Hold(sys.hop(home.id, fs.id, controlMsgBytes))
		if fs.down {
			continue
		}
		if !sys.reachable(home.id, fs.id) {
			sys.queueTermination(fs.id, st.gid, true)
			continue
		}
		must(fs, fs.cpuUse(p, costs.UnlockCPU))
		fs.releaseTxn(st.gid)
		sys.trace(st.gid, u.spec.Kind, fs.id, EvRelease, -1)
	}
}
