package testbed

import (
	"fmt"

	"carat/internal/comm"
	"carat/internal/disk"
	"carat/internal/sim"
	"carat/internal/wal"
)

// termEntry is one queued cooperative termination: work a site owes a
// transaction whose coordinator became unreachable mid-protocol. Release
// entries only drop locks a failed-over read took; resolve entries settle a
// commit-protocol branch against the coordinator's durable log.
type termEntry struct {
	gid     int64
	release bool
}

// healDrainMarginMS is how long after a heal the reconciliation drain is
// given before the partition audit treats leftovers as violations: the
// drain charges real (simulated) I/O, so a teardown landing right on the
// heal can legitimately freeze it mid-flight.
const healDrainMarginMS = 5000

// reachable reports whether sites a and b can exchange messages under the
// current partition. Always true while no partition machinery is installed,
// so every enforcement check below this is a no-op on non-partition runs.
func (s *System) reachable(a, b NodeID) bool {
	return s.faults == nil || s.faults.part == nil || s.faults.part.Reachable(int(a), int(b))
}

// suspected reports whether the failure detector at site obs currently
// suspects site sub. Always false while the detector is not running.
func (s *System) suspected(obs, sub NodeID) bool {
	return s.faults != nil && s.faults.detector != nil && s.faults.detector.Suspects(int(obs), int(sub))
}

// majorityReachable reports whether the failure detector at the site trusts
// a strict majority of all sites (counting itself); vacuously true while
// the detector is off.
func (s *System) majorityReachable(id NodeID) bool {
	if s.faults == nil || s.faults.detector == nil {
		return true
	}
	return s.faults.detector.MajorityReachable(int(id))
}

// initPartitions installs the partition machinery when the plan can sever
// links: the partition map, the scheduled partitions, the random partition
// process, and the heartbeat failure detector. Called from initFaults, so
// the event order at time zero is fixed before user processes spawn.
func (s *System) initPartitions() {
	f := s.faults
	if !f.plan.partitionsConfigured() {
		return
	}
	f.part = comm.NewPartitionMap(len(s.nodes))
	f.term = make(map[NodeID][]termEntry)
	for _, ps := range f.plan.Partitions {
		ps := ps
		s.env.At(ps.AtMS, func() { s.startPartition(ps.Groups, ps.HealAfterMS) })
	}
	if f.plan.PartitionMTBFMS > 0 {
		s.scheduleRandomPartition()
	}
	s.initDetector()
}

// scheduleRandomPartition draws the next partition — onset, duration, and a
// two-sided split — from the dedicated partition stream and schedules it.
// All draws happen now, so the partition schedule is a fixed function of
// the plan seed; the process re-arms itself after each window whether or
// not its partition actually took effect.
func (s *System) scheduleRandomPartition() {
	f := s.faults
	at := f.partRnd.Exp(f.plan.PartitionMTBFMS)
	dur := f.partRnd.Exp(f.plan.PartitionMeanMS)
	if dur < 1 {
		dur = 1
	}
	groups := make([][]NodeID, 2)
	for i := range s.nodes {
		if f.partRnd.Bool(f.plan.PartitionSplitProb) {
			groups[0] = append(groups[0], NodeID(i))
		} else {
			groups[1] = append(groups[1], NodeID(i))
		}
	}
	s.env.After(at, func() {
		s.startPartition(groups, dur)
		s.env.After(dur, func() { s.scheduleRandomPartition() })
	})
}

// startPartition puts a partition into effect and schedules its heal. An
// onset while another partition is in effect is dropped (one partition at a
// time), as is a degenerate split with fewer than two non-empty groups.
func (s *System) startPartition(groups [][]NodeID, healAfter float64) {
	f := s.faults
	if f.part.Active() {
		return
	}
	nonEmpty := 0
	for _, grp := range groups {
		if len(grp) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return
	}
	split := make([][]int, len(groups))
	for i, grp := range groups {
		for _, site := range grp {
			split[i] = append(split[i], int(site))
		}
	}
	f.part.Split(split)
	f.partitions++
	f.partitionSince = s.env.Now()
	for gi, grp := range groups {
		for _, site := range grp {
			s.trace(-1, KindNone, site, EvPartition, gi)
		}
	}
	s.env.After(healAfter, func() { s.healPartition() })
}

// healPartition removes the partition and kicks off the reconciliation the
// split deferred: queued cooperative terminations and pending replica
// applies at up sites. (Down sites reconcile in restart recovery instead.)
func (s *System) healPartition() {
	f := s.faults
	if !f.part.Active() {
		return
	}
	f.part.Heal()
	now := s.env.Now()
	f.partitionMS += now - f.partitionSince
	f.lastHealT = now
	s.trace(-1, KindNone, -1, EvPartitionHeal, -1)
	for i := range s.nodes {
		id := NodeID(i)
		nd := s.nodes[i]
		if nd.down {
			continue
		}
		entries := f.term[id]
		pending := s.repl != nil && len(s.repl.pending[id]) > 0
		if len(entries) == 0 && !pending {
			continue
		}
		delete(f.term, id)
		s.env.Spawn(fmt.Sprintf("heal-%d", id), func(p *sim.Proc) {
			s.terminateQueued(p, nd, entries)
			if s.repl != nil {
				s.drainReplicaApplies(p, nd)
			}
		})
	}
}

// queueTermination records that site id owes transaction gid a cooperative
// termination once the partition heals, deduplicated per (site, gid). Sites
// that crash before the heal drop their queue — restart recovery resolves
// everything durable.
func (s *System) queueTermination(id NodeID, gid int64, release bool) {
	f := s.faults
	if f == nil || f.term == nil {
		return
	}
	for _, e := range f.term[id] {
		if e.gid == gid {
			return
		}
	}
	f.term[id] = append(f.term[id], termEntry{gid: gid, release: release})
}

// terminateQueued performs cooperative termination for one site's queued
// entries, in queue order. It mirrors restart recovery's in-doubt
// resolution: strictly local work plus the coordinator's durable log as the
// ground-truth oracle — no network hops — so a fresh partition starting
// mid-drain cannot invalidate it. Presumed abort is preserved: a branch
// commits if and only if the coordinator holds a durable commit record.
func (s *System) terminateQueued(p *sim.Proc, nd *node, entries []termEntry) {
	costs := nd.costsFor(LU)
	for _, e := range entries {
		if nd.down {
			// Crashed mid-drain: restart recovery supersedes the rest.
			return
		}
		if e.release {
			// A failed-over read's locks: no journal state to settle.
			must(nd, nd.cpuUse(p, costs.UnlockCPU))
			nd.releaseTxn(e.gid)
			s.trace(e.gid, KindNone, nd.id, EvRelease, -1)
			continue
		}
		prepared, resolved := siteBranchState(nd, e.gid)
		if resolved {
			// The protocol completed here before the link died; only the
			// lock release could have been lost.
			nd.releaseTxn(e.gid)
			continue
		}
		if s.coordinatorCommitted(e.gid) {
			if prepared {
				must(nd, nd.logDisk.Do(p, disk.ForceWrite, 0))
				nd.fault.InDoubtCommitted++
				nd.journal.ResolveInDoubt(e.gid, true, nd.store)
			} else {
				// Read-only branch (no prepared record): record the lazy
				// commit exactly as phase 2 would have.
				nd.journal.Commit(e.gid)
			}
			s.trace(e.gid, KindNone, nd.id, EvSlaveCommit, -1)
		} else if prepared {
			k := nd.journal.BeforeImageCount(e.gid)
			for i := 0; i < k; i++ {
				must(nd, nd.cpuUse(p, costs.DMIOCPU))
				must(nd, nd.dbDiskFor(0).Do(p, disk.Write, 0))
			}
			nd.fault.InDoubtAborted++
			nd.journal.ResolveInDoubt(e.gid, false, nd.store)
		} else {
			// Never prepared and no coordinator commit: presumed abort.
			undo := nd.journal.Rollback(e.gid, nd.store)
			for _, g := range undo {
				must(nd, nd.cpuUse(p, costs.DMIOCPU))
				must(nd, nd.dbDiskFor(g).Do(p, disk.Write, g))
			}
		}
		must(nd, nd.cpuUse(p, costs.UnlockCPU))
		nd.releaseTxn(e.gid)
		s.trace(e.gid, KindNone, nd.id, EvRelease, -1)
	}
}

// siteBranchState reports whether the site holds a durable prepared record
// for gid with no resolution yet, and whether any resolution (commit or
// abort record) exists.
func siteBranchState(nd *node, gid int64) (prepared, resolved bool) {
	flushed := nd.journal.FlushedLSN()
	for r := range nd.journal.All() {
		if r.Txn != gid {
			continue
		}
		switch r.Kind {
		case wal.Prepared:
			if r.LSN <= flushed {
				prepared = true
			}
		case wal.Commit, wal.Abort:
			resolved = true
		}
	}
	return prepared, resolved
}

// initGray schedules the plan's gray-failure windows. Validation guarantees
// windows for one site never overlap, so start/end pairs nest trivially.
func (s *System) initGray() {
	for _, g := range s.faults.plan.GraySites {
		g := g
		s.env.At(g.AtMS, func() { s.startGray(g) })
	}
}

// startGray enters one degradation window: the site's CPU bursts stretch by
// CPUFactor and its disks slow by DiskFactor until the window ends.
func (s *System) startGray(g GrayFailure) {
	nd := s.nodes[g.Site]
	if g.CPUFactor > 1 {
		nd.grayCPU = g.CPUFactor
	}
	if g.DiskFactor > 1 {
		for _, d := range nd.dbDisks {
			d.SetSlowdown(g.DiskFactor)
		}
		nd.logDisk.SetSlowdown(g.DiskFactor)
	}
	nd.grayActive = true
	nd.graySince = s.env.Now()
	s.env.After(g.ForMS, func() { s.endGray(nd) })
}

// endGray restores the site to full speed and settles its degradation clock.
func (s *System) endGray(nd *node) {
	nd.grayCPU = 0
	for _, d := range nd.dbDisks {
		d.SetSlowdown(0)
	}
	nd.logDisk.SetSlowdown(0)
	if nd.grayActive {
		nd.grayMS += s.env.Now() - nd.graySince
		nd.grayActive = false
	}
}
