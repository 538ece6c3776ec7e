package testbed

import (
	"errors"
	"fmt"
	"sort"

	"carat/internal/comm"
	"carat/internal/disk"
	"carat/internal/health"
	"carat/internal/rng"
	"carat/internal/sim"
)

// Fault causes delivered to transactions doomed by the fault injector.
// errDeadlockVictim (system.go) completes the abort-cause taxonomy.
var (
	// errSiteCrash dooms every transaction with a crashed participant site.
	errSiteCrash = errors.New("testbed: participant site crashed")
	// errLockTimeout aborts a transaction whose lock wait exceeded the
	// plan's bound.
	errLockTimeout = errors.New("testbed: lock wait timed out")
	// errPrepareTimeout aborts a two-phase commit whose prepare
	// acknowledgments did not all arrive in time (presumed abort).
	errPrepareTimeout = errors.New("testbed: 2PC prepare timed out")
	// errPartitioned dooms a transaction that needs a site the current
	// network partition makes unreachable from its home. Classified under
	// CauseCrash for retry accounting (the participant is unavailable either
	// way) but tallied separately per site.
	errPartitioned = errors.New("testbed: participant site unreachable (network partition)")
)

// PartitionSchedule schedules one network partition: at AtMS the sites split
// into the listed Groups — only same-group sites can exchange messages —
// and the partition heals HealAfterMS later. Sites appearing in no group
// stay reachable from everyone (a partial partition). A scheduled partition
// whose onset falls while another partition is still in effect is ignored:
// the model carries one partition at a time.
type PartitionSchedule struct {
	Groups      [][]NodeID
	AtMS        float64
	HealAfterMS float64
}

// GrayFailure degrades one site without failing it: from AtMS for ForMS the
// site's CPU service times are stretched by CPUFactor and its disk service
// times by DiskFactor (each >= 1; zero leaves that resource unchanged). The
// site stays up and answers every protocol — just slowly — which is exactly
// the failure mode timeout-based detection misjudges.
type GrayFailure struct {
	Site       NodeID
	AtMS       float64
	ForMS      float64
	CPUFactor  float64
	DiskFactor float64
}

// SiteCrash schedules one explicit crash: site Site loses volatile state at
// AtMS and begins restart recovery DownForMS later.
type SiteCrash struct {
	Site      NodeID
	AtMS      float64
	DownForMS float64
}

// FaultPlan injects mid-run faults into a simulation: site crashes (explicit
// schedule and/or an exponential crash process), message loss and extra
// delay on the inter-site network, and the protocol timeouts surviving sites
// use to degrade gracefully instead of wedging.
//
// Fault timing is driven by a dedicated RNG stream derived from Seed, so it
// is deterministic and independent of the workload seed: the same plan
// crashes the same sites at the same instants whatever workload runs under
// it. A nil or zero plan is fully inert — the simulation is byte-identical
// to one configured without it.
//
// Probability convention: the probability of a recoverable event that the
// injector loops on lies in [0,1) — MsgLossProb's geometric retransmission
// diverges at 1 — while the probability of an unrecoverable one-shot event
// lies in [0,1], where 1 means "always": MsgExtraDelayProb, ProbeLossProb
// (1.0 models a fully partitioned detection channel), and
// PartitionSplitProb.
type FaultPlan struct {
	// Seed drives the fault RNG streams (crash timing, message faults).
	// Zero selects a fixed default stream, still independent of the
	// workload seed.
	Seed uint64

	// Crashes lists explicit crash/restart events. A crash while the site
	// is already down is ignored.
	Crashes []SiteCrash

	// CrashMTTFMS > 0 adds a random crash process per site: time to the
	// next crash is exponential with this mean, and each outage lasts an
	// exponential time with mean CrashMTTRMS (default 5000 ms) before
	// restart recovery begins.
	CrashMTTFMS float64
	CrashMTTRMS float64

	// MsgLossProb is the per-message loss probability on inter-site hops;
	// each loss adds MsgRetransmitMS (default 10 ms) to the delivery delay
	// and the message is re-sent (geometric retransmission).
	MsgLossProb     float64
	MsgRetransmitMS float64

	// MsgExtraDelayProb adds, with this probability, an exponential extra
	// delay of mean MsgExtraDelayMS (default 5 ms) to an inter-site hop.
	MsgExtraDelayProb float64
	MsgExtraDelayMS   float64

	// PrepareTimeoutMS bounds the coordinator's wait for PREPARE
	// acknowledgments; on expiry the transaction is aborted under presumed
	// abort. Zero disables the timeout (crashed slaves still fail fast via
	// the crash notification).
	PrepareTimeoutMS float64

	// LockWaitTimeoutMS bounds every lock wait; a transaction blocked
	// longer is aborted with a timeout cause. Zero disables it.
	LockWaitTimeoutMS float64

	// RetryBackoffMS is how long a user whose slave site is down waits
	// between submission attempts (default 500 ms). Users homed at a down
	// site park until its restart completes instead.
	RetryBackoffMS float64

	// ProbeLossProb drops each inter-site deadlock probe with this
	// probability — silently, with no retransmission, unlike MsgLossProb.
	// 1.0 (total probe loss) is allowed: it models a partitioned detection
	// channel and is what the probe-retransmission regression exercises.
	ProbeLossProb float64

	// ProbeLossUntilMS, when positive, drops every inter-site probe before
	// this instant: a bounded probe-channel outage. Probes sent at or after
	// the instant are subject only to ProbeLossProb.
	ProbeLossUntilMS float64

	// Partitions lists scheduled network partitions, enforced at the link
	// layer: every message crossing a severed pair — user requests, 2PC
	// votes, replica propagation, deadlock probes — is undeliverable until
	// the heal.
	Partitions []PartitionSchedule

	// PartitionMTBFMS > 0 adds a random partition process on a dedicated RNG
	// stream: time to the next onset is exponential with this mean, each
	// partition lasts an exponential time with mean PartitionMeanMS (default
	// 5000 ms, minimum 1 ms), and each site lands on side A independently
	// with probability PartitionSplitProb (default 0.5). A draw that puts
	// every site on one side is a degenerate, no-op partition.
	PartitionMTBFMS    float64
	PartitionMeanMS    float64
	PartitionSplitProb float64

	// GraySites lists scheduled gray failures: per-site CPU/disk
	// service-rate degradation windows. Windows for the same site must not
	// overlap.
	GraySites []GrayFailure

	// HeartbeatIntervalMS and SuspectAfterMS tune the heartbeat failure
	// detector that the partition-aware mechanisms consult (admission
	// shedding toward unreachable coordinators, minority-side failover
	// refusal, cooperative 2PC termination). The detector runs only when
	// partitions are configured; defaults are 250 ms heartbeats and a
	// 1000 ms suspicion timeout.
	HeartbeatIntervalMS float64
	SuspectAfterMS      float64
}

// partitionsConfigured reports whether the plan can ever sever a link.
func (f *FaultPlan) partitionsConfigured() bool {
	return len(f.Partitions) > 0 || f.PartitionMTBFMS > 0
}

// Active reports whether the plan injects anything at all.
func (f *FaultPlan) Active() bool {
	if f == nil {
		return false
	}
	return len(f.Crashes) > 0 || f.CrashMTTFMS > 0 ||
		f.MsgLossProb > 0 || f.MsgExtraDelayProb > 0 ||
		f.PrepareTimeoutMS > 0 || f.LockWaitTimeoutMS > 0 ||
		f.ProbeLossProb > 0 || f.ProbeLossUntilMS > 0 ||
		f.partitionsConfigured() || len(f.GraySites) > 0
}

// validate checks the plan against the node count and fills scalar defaults
// in place. Plans are documented as shareable across replications, so
// Config.Validate always hands validate a private copy and re-points the
// config at it — the caller's plan is never written through. The Crashes,
// Partitions and GraySites slices are never mutated either way.
func (f *FaultPlan) validate(nodes int) error {
	for i, c := range f.Crashes {
		if int(c.Site) < 0 || int(c.Site) >= nodes {
			return fmt.Errorf("testbed: fault plan crash %d: site %d out of range", i, c.Site)
		}
		if !finiteNonNeg(c.AtMS) {
			return fmt.Errorf("testbed: fault plan crash %d: time %v must be finite and non-negative", i, c.AtMS)
		}
		if c.DownForMS <= 0 || !finiteNonNeg(c.DownForMS) {
			return fmt.Errorf("testbed: fault plan crash %d: DownForMS must be finite and positive", i)
		}
	}
	if !finiteNonNeg(f.CrashMTTFMS) || !finiteNonNeg(f.CrashMTTRMS) {
		return fmt.Errorf("testbed: fault plan MTTF/MTTR must be finite and non-negative")
	}
	if !finiteNonNeg(f.MsgLossProb) || f.MsgLossProb >= 1 {
		return fmt.Errorf("testbed: fault plan MsgLossProb %v out of [0,1)", f.MsgLossProb)
	}
	if !finiteNonNeg(f.MsgExtraDelayProb) || f.MsgExtraDelayProb > 1 {
		return fmt.Errorf("testbed: fault plan MsgExtraDelayProb %v out of [0,1]", f.MsgExtraDelayProb)
	}
	if !finiteNonNeg(f.PrepareTimeoutMS) || !finiteNonNeg(f.LockWaitTimeoutMS) {
		return fmt.Errorf("testbed: fault plan timeouts must be finite and non-negative")
	}
	if !finiteNonNeg(f.ProbeLossProb) || f.ProbeLossProb > 1 {
		return fmt.Errorf("testbed: fault plan ProbeLossProb %v out of [0,1]", f.ProbeLossProb)
	}
	if !finiteNonNeg(f.ProbeLossUntilMS) {
		return fmt.Errorf("testbed: fault plan ProbeLossUntilMS must be finite and non-negative")
	}
	// Zero or negative delays take their defaults below; only a non-finite
	// one is an error.
	if !finite(f.MsgRetransmitMS, f.MsgExtraDelayMS, f.RetryBackoffMS) {
		return fmt.Errorf("testbed: fault plan retransmit, extra-delay and retry-backoff times must be finite")
	}
	for i, ps := range f.Partitions {
		if !finiteNonNeg(ps.AtMS) {
			return fmt.Errorf("testbed: fault plan partition %d: time %v must be finite and non-negative", i, ps.AtMS)
		}
		if ps.HealAfterMS <= 0 || !finiteNonNeg(ps.HealAfterMS) {
			return fmt.Errorf("testbed: fault plan partition %d: HealAfterMS must be finite and positive", i)
		}
		if len(ps.Groups) < 2 {
			return fmt.Errorf("testbed: fault plan partition %d: needs at least two groups", i)
		}
		seen := make(map[NodeID]bool)
		for _, grp := range ps.Groups {
			for _, site := range grp {
				if int(site) < 0 || int(site) >= nodes {
					return fmt.Errorf("testbed: fault plan partition %d: site %d out of range", i, site)
				}
				if seen[site] {
					return fmt.Errorf("testbed: fault plan partition %d: site %d in two groups", i, site)
				}
				seen[site] = true
			}
		}
	}
	if !finiteNonNeg(f.PartitionMTBFMS) || !finiteNonNeg(f.PartitionMeanMS) {
		return fmt.Errorf("testbed: fault plan partition MTBF/mean must be finite and non-negative")
	}
	if !finiteNonNeg(f.PartitionSplitProb) || f.PartitionSplitProb > 1 {
		return fmt.Errorf("testbed: fault plan PartitionSplitProb %v out of [0,1]", f.PartitionSplitProb)
	}
	for i, g := range f.GraySites {
		if int(g.Site) < 0 || int(g.Site) >= nodes {
			return fmt.Errorf("testbed: fault plan gray failure %d: site %d out of range", i, g.Site)
		}
		if !finiteNonNeg(g.AtMS) {
			return fmt.Errorf("testbed: fault plan gray failure %d: time %v must be finite and non-negative", i, g.AtMS)
		}
		if g.ForMS <= 0 || !finiteNonNeg(g.ForMS) {
			return fmt.Errorf("testbed: fault plan gray failure %d: ForMS must be finite and positive", i)
		}
		for _, x := range []float64{g.CPUFactor, g.DiskFactor} {
			if !finiteNonNeg(x) || x != 0 && x < 1 {
				return fmt.Errorf("testbed: fault plan gray failure %d: factors must be finite and >= 1 (or 0 for unchanged)", i)
			}
		}
		for j := 0; j < i; j++ {
			o := f.GraySites[j]
			if o.Site == g.Site && g.AtMS < o.AtMS+o.ForMS && o.AtMS < g.AtMS+g.ForMS {
				return fmt.Errorf("testbed: fault plan gray failures %d and %d overlap on site %d", j, i, g.Site)
			}
		}
	}
	if !finiteNonNeg(f.HeartbeatIntervalMS) || !finiteNonNeg(f.SuspectAfterMS) {
		return fmt.Errorf("testbed: fault plan detector timings must be finite and non-negative")
	}
	if f.PartitionMTBFMS > 0 {
		if f.PartitionMeanMS == 0 {
			f.PartitionMeanMS = 5000
		}
		if f.PartitionSplitProb == 0 {
			f.PartitionSplitProb = 0.5
		}
	}
	if f.CrashMTTFMS > 0 && f.CrashMTTRMS == 0 {
		f.CrashMTTRMS = 5000
	}
	if f.MsgRetransmitMS <= 0 {
		f.MsgRetransmitMS = 10
	}
	if f.MsgExtraDelayMS <= 0 {
		f.MsgExtraDelayMS = 5
	}
	if f.RetryBackoffMS <= 0 {
		f.RetryBackoffMS = 500
	}
	return nil
}

// interruptCause extracts the cause of a sim interrupt delivered to a parked
// process, distinguishing fault-injected aborts (crash, timeout) from
// deadlock kills.
func interruptCause(err error) (error, bool) {
	var ie *sim.InterruptError
	if errors.As(err, &ie) {
		return ie.Cause, true
	}
	return nil, false
}

// faultStreamSalt separates the fault RNG universe from every workload
// stream (workload substreams are Split off rng.New(cfg.Seed) directly).
const faultStreamSalt = 0xFA5E17

// faultState is the per-run fault injector: the validated plan plus its
// dedicated RNG substreams (one for message faults, one per site for crash
// timing), all derived from the plan seed alone.
type faultState struct {
	plan     FaultPlan
	msgRnd   *rng.Rand
	probeRnd *rng.Rand
	crashRnd []*rng.Rand

	// partRnd drives the random partition process; it is split off the root
	// unconditionally (Split is pure) so configuring partitions never shifts
	// the crash or message streams.
	partRnd *rng.Rand

	// part is the live partition map, non-nil only when the plan can sever
	// links; every reachability check through System.reachable is a no-op
	// while it is nil.
	part *comm.PartitionMap

	// detector is the heartbeat failure detector, started only when
	// partitions are configured.
	detector *health.Detector

	// term queues commit-protocol terminations per site: work a site owes a
	// transaction whose coordinator became unreachable mid-protocol, drained
	// when the partition heals (a crash of the site supersedes the queue —
	// restart recovery resolves everything durable).
	term map[NodeID][]termEntry

	// Partition measurement (reset at end of warmup).
	partitions     int64   // partitions begun
	partitionMS    float64 // accumulated wall time with a partition in effect
	partitionSince float64 // onset of the current partition, if any
	lastHealT      float64 // instant the last partition healed
}

// initFaults installs an active fault plan: RNG streams are derived and the
// initial crash events scheduled. Called from New before user processes are
// spawned, so the event order at time zero is fixed.
func (s *System) initFaults(plan FaultPlan) {
	seed := plan.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	root := rng.New(rng.SeedStream(seed, faultStreamSalt))
	f := &faultState{plan: plan, msgRnd: root.Split(1), probeRnd: root.Split(2), partRnd: root.Split(3)}
	for i := range s.nodes {
		f.crashRnd = append(f.crashRnd, root.Split(uint64(1000+i)))
	}
	s.faults = f
	for _, c := range plan.Crashes {
		c := c
		s.env.At(c.AtMS, func() { s.crashSite(c.Site, c.DownForMS) })
	}
	if plan.CrashMTTFMS > 0 {
		for i := range s.nodes {
			s.scheduleRandomCrash(NodeID(i))
		}
	}
	s.initPartitions()
	s.initGray()
}

// scheduleRandomCrash draws the site's next (crash time, outage length) pair
// from its dedicated stream and schedules the crash. Both values are drawn
// now, so each site's crash schedule is a fixed function of the plan seed.
func (s *System) scheduleRandomCrash(id NodeID) {
	f := s.faults
	at := f.crashRnd[id].Exp(f.plan.CrashMTTFMS)
	down := f.crashRnd[id].Exp(f.plan.CrashMTTRMS)
	if down < 1 {
		down = 1
	}
	s.env.After(at, func() { s.crashSite(id, down) })
}

// msgPenalty returns the extra delay fault injection adds to one inter-site
// hop leaving node from: geometric retransmissions for lost messages plus an
// occasional exponential extra delay.
func (s *System) msgPenalty(from NodeID) float64 {
	f := s.faults
	var extra float64
	if f.plan.MsgLossProb > 0 {
		for f.msgRnd.Bool(f.plan.MsgLossProb) {
			s.nodes[from].fault.MessagesLost++
			extra += f.plan.MsgRetransmitMS
		}
	}
	if f.plan.MsgExtraDelayProb > 0 && f.msgRnd.Bool(f.plan.MsgExtraDelayProb) {
		extra += f.msgRnd.Exp(f.plan.MsgExtraDelayMS)
	}
	return extra
}

// dropProbe reports whether fault injection drops one inter-site deadlock
// probe leaving node from: always inside the probe-channel outage window,
// else with the per-probe loss probability. Dropped probes are simply gone —
// no retransmission; recovering from this is the resilience layer's probe
// retransmission (Resilience.ProbeRetryMS).
func (s *System) dropProbe(from NodeID) bool {
	f := s.faults
	if f.plan.ProbeLossUntilMS > 0 && s.env.Now() < f.plan.ProbeLossUntilMS {
		s.nodes[from].resil.ProbesLost++
		return true
	}
	if f.plan.ProbeLossProb > 0 && f.probeRnd.Bool(f.plan.ProbeLossProb) {
		s.nodes[from].resil.ProbesLost++
		return true
	}
	return false
}

// crashSite fails a site: its volatile state (lock table, timestamp state,
// probe detector, pending grants) is lost, every in-flight transaction with
// the site among its participants is doomed with a crash cause, and restart
// recovery is scheduled downFor later. A crash while the site is already
// down is ignored.
func (s *System) crashSite(id NodeID, downFor float64) {
	nd := s.nodes[id]
	if nd.down {
		return
	}
	nd.fault.Crashes++
	s.markDown(nd)
	s.trace(-1, KindNone, id, EvCrash, -1)

	// Doom in ascending gid order so the interleaving of victim wakeups is
	// deterministic (s.reg is a map).
	gids := make([]int64, 0, len(s.reg))
	for gid := range s.reg {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		st := s.reg[gid]
		if st.finished || !st.hasParticipant(id) {
			continue
		}
		if !st.doomed {
			st.doomed = true
			st.cause = errSiteCrash
		}
		if st.parked {
			// Only lock waits are force-interrupted (mirroring killTxn);
			// anything else notices the doom at its next phase boundary.
			st.proc.Interrupt(errSiteCrash)
		}
	}
	nd.wipeVolatile()
	// Any queued partition terminations are superseded: restart recovery
	// resolves every durable branch, and the volatile locks they would have
	// released are gone with the wipe.
	delete(s.faults.term, id)
	s.env.After(downFor, func() { s.restartSite(id) })
}

// restartSite spawns the site's restart recovery process: WAL recovery
// undoes the losers (charging the undo I/O), in-doubt two-phase-commit
// branches are resolved against the coordinators' durable logs, and the
// site rejoins. The site counts as down until recovery completes.
func (s *System) restartSite(id NodeID) {
	nd := s.nodes[id]
	s.env.Spawn(fmt.Sprintf("recover-%d", id), func(p *sim.Proc) {
		costs := nd.costsFor(LU)
		undo := nd.journal.LoserBlocks()
		losers, inDoubt := nd.journal.Recover(nd.store)
		_ = losers
		for _, g := range undo {
			g := g
			must(nd, nd.cpuUse(p, costs.DMIOCPU))
			must(nd, nd.dbDiskFor(g).Do(p, disk.Write, g))
		}
		for _, gid := range inDoubt {
			commit := s.coordinatorCommitted(gid)
			if commit {
				must(nd, nd.logDisk.Do(p, disk.ForceWrite, 0))
				nd.fault.InDoubtCommitted++
			} else {
				k := nd.journal.BeforeImageCount(gid)
				for i := 0; i < k; i++ {
					must(nd, nd.cpuUse(p, costs.DMIOCPU))
					must(nd, nd.dbDiskFor(0).Do(p, disk.Write, 0))
				}
				nd.fault.InDoubtAborted++
			}
			nd.journal.ResolveInDoubt(gid, commit, nd.store)
		}
		if s.repl != nil {
			s.recoverReplicas(p, nd)
		}
		s.markUp(nd)
		s.trace(-1, KindNone, id, EvRestart, -1)
		if s.faults.plan.CrashMTTFMS > 0 {
			s.scheduleRandomCrash(id)
		}
	})
}

// markDown flags the node down and starts the downtime/degraded clocks.
func (s *System) markDown(nd *node) {
	nd.down = true
	nd.downSince = s.env.Now()
	if nd.upEv == nil {
		nd.upEv = sim.NewEvent(s.env)
	}
	if s.downCount == 0 {
		s.degradedSince = s.env.Now()
	}
	s.downCount++
}

// markUp flags the node up again, settles the downtime/degraded clocks and
// releases users parked on the restart.
func (s *System) markUp(nd *node) {
	now := s.env.Now()
	nd.down = false
	nd.fault.DowntimeMS += now - nd.downSince
	s.downCount--
	if s.downCount == 0 {
		s.degradedMS += now - s.degradedSince
	}
	if nd.upEv != nil {
		nd.upEv.Trigger(nil)
		nd.upEv = nil
	}
}

// hasParticipant reports whether the site participates in the transaction.
func (st *txnState) hasParticipant(id NodeID) bool {
	for _, p := range st.parts {
		if p == id {
			return true
		}
	}
	return false
}

// awaitFaults is the degraded-mode throttle in the user's retry loop: a user
// homed at a down site parks until its restart completes; a user whose slave
// site is down, partitioned away, or suspected by the failure detector backs
// off before retrying, so outages do not spin the closed loop. No-op while
// every relevant site is up and reachable.
func (u *user) awaitFaults(p *sim.Proc) {
	sys := u.sys
	home := sys.nodes[u.spec.Home]
	for home.down && home.upEv != nil {
		if err := home.upEv.Wait(p); err != nil {
			return
		}
	}
	for _, r := range u.spec.RemoteSites() {
		nd := sys.nodes[r]
		if nd.down || !sys.reachable(u.spec.Home, nd.id) || sys.suspected(u.spec.Home, nd.id) {
			if sys.replReadFailover(u.spec.Home, u.spec.Kind) {
				// Reads fail over to surviving replicas; the outage does not
				// block this user.
				continue
			}
			p.Hold(sys.faults.plan.RetryBackoffMS)
			return
		}
	}
}
