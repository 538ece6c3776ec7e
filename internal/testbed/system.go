package testbed

import (
	"errors"
	"fmt"
	"math"

	"carat/internal/cc"
	"carat/internal/comm"
	"carat/internal/placement"
	"carat/internal/probe"
	"carat/internal/rng"
	"carat/internal/sim"
	"carat/internal/storage"
)

// errDeadlockVictim is the interrupt cause delivered to a transaction
// chosen as a (local or global) deadlock victim while it waits for a lock.
var errDeadlockVictim = errors.New("testbed: deadlock victim")

// errValidation dooms a transaction that failed OCC backward validation
// at commit (OCC runs only); it rolls back and resubmits under
// CauseValidation.
var errValidation = errors.New("testbed: validation conflict")

// txnState is the system-wide registry entry for one in-flight transaction,
// used by global deadlock detection to locate and kill victims.
type txnState struct {
	gid        int64
	kind       TxnKind
	home       NodeID
	activeNode NodeID
	proc       *sim.Proc
	doomed     bool
	finished   bool
	// parked is true exactly while the transaction's process is blocked in
	// a lock wait; global deadlock victims are only killed in that state
	// (a probe that arrives after its victim was granted the lock is
	// stale: the cycle it observed no longer exists).
	parked bool
	// committing is true from TEND processing onward: past that point the
	// transaction may no longer be wounded or killed (under 2PL it holds
	// every lock it needs, so it cannot be on any deadlock cycle).
	committing bool
	// cause records why the transaction was doomed (deadlock, site crash,
	// timeout) for the aborts-by-cause accounting. Nil until doomed.
	cause error
	// parts lists the participant sites (home first); populated only when a
	// fault plan is active, for crash dooming.
	parts []NodeID
	// replWrites lists the granules this transaction wrote, deduplicated,
	// for post-commit replica propagation (replication runs only).
	replWrites []replWrite
	// failoverNodes lists replica sites serving failed-over reads that do
	// not release this transaction's locks through the normal protocol, for
	// end-of-transaction lock release.
	failoverNodes []*node
	// protoHeld lists the sites whose DMs this submission allocated — the
	// sites the commit/abort protocol itself releases locks at (replication
	// runs only; mirrors attempt's dmHeld).
	protoHeld []*node
}

// doom marks the transaction doomed, recording cause unless an earlier
// cause is already recorded, and returns the recorded cause.
func (st *txnState) doom(cause error) error {
	if st.cause == nil {
		st.cause = cause
	}
	st.doomed = true
	return st.cause
}

// replWrite identifies one written granule by its owning site.
type replWrite struct {
	owner   NodeID
	granule int
}

// System is a complete simulated CARAT installation.
type System struct {
	cfg    Config
	env    *sim.Env
	nodes  []*node
	rnd    *rng.Rand
	ccCaps cc.Capabilities // capability flags of the configured CC paradigm
	// ccSlots bounds concurrent submissions under deterministic execution
	// (nil otherwise). A QueCC claim-wait parks while holding its DM
	// servers, so unbounded admission can wedge: every DM server held by a
	// parked younger transaction while the older transaction its claims
	// wait for starves in the DM queue — a cycle through the DM pool the
	// claim layer's gid-order acyclicity cannot see. Capping admitted
	// transactions at the smallest site's DM pool guarantees an admitted
	// transaction always obtains its DM servers, so every wait is a claim
	// wait and the younger-waits-for-older argument covers the whole
	// system. This is QueCC's plan-then-execute shape: the planner hands
	// batches to a fixed set of execution queues, never more work in
	// flight than executors.
	ccSlots *sim.Resource

	txnSeq   int64
	reg      map[int64]*txnState
	users    []*user
	netBytes int64 // inter-site payload bytes, for load-aware delay models

	// reqChains recycles request step machines (see reqChain).
	reqChains []*reqChain
	// wire is the infinite-server delay station a request chain visits for
	// each of its network hops with a positive delay.
	wire *sim.Resource

	// Data-directory placement state (nil unless Config.Placement is set).
	placement *placementState

	// Shared-fabric accounting (nil unless the network is an Ethernet with
	// Hosts > 0, i.e. a scale-out fabric rather than the legacy model).
	fabric *fabricStats

	// Replication state (nil unless Config.Replication is active).
	repl *replState

	// Open-arrival state (nil unless Config.Open is active).
	open *openState

	// Fault injection state (nil without an active FaultPlan).
	faults        *faultState
	downCount     int     // sites currently down
	degradedSince float64 // when downCount last rose from zero
	degradedMS    float64 // accumulated time with at least one site down
}

// placementState is the resolved data directory of one run: the directory
// itself, the fleet's global record space, and the anchor machinery that
// scatters requests across it.
type placementState struct {
	dir      placement.Directory
	global   storage.Layout  // per-site layout scaled by the site count
	affinity float64         // locality strategy: fraction pinned to the home shard
	pat      storage.Pattern // anchor-record pattern over the global space
}

// fabricStats accumulates the shared Ethernet fabric's queueing-center
// measurements over the measurement window.
type fabricStats struct {
	eth comm.Ethernet
	FabricMetrics
	busyMS    float64 // wire occupancy: summed raw transmission time
	inflateMS float64 // summed contention-interval inflation
	queueMS   float64 // summed M/D/1 channel queueing delay
}

// account charges one inter-site message against the fabric.
func (f *fabricStats) account(bytes int, util float64) {
	raw, infl, queue := f.eth.Breakdown(bytes, util)
	f.NetMessages++
	f.NetBytes += int64(bytes)
	f.busyMS += raw
	f.inflateMS += infl
	f.queueMS += queue
}

// New builds a system from the configuration (validating it first).
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		cfg:    cfg,
		env:    sim.NewEnv(),
		rnd:    rng.New(cfg.Seed),
		reg:    make(map[int64]*txnState),
		ccCaps: cfg.Concurrency.Capabilities(),
	}
	sys.wire = sim.NewResource(sys.env, "wire", math.MaxInt)
	if pc := cfg.Placement; pc != nil {
		dir, err := placement.NewDirectory(pc.Strategy, len(cfg.Nodes), cfg.Layout.Granules)
		if err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
		sys.placement = &placementState{
			dir:      dir,
			global:   cfg.Layout.Scale(len(cfg.Nodes)),
			affinity: pc.Affinity,
			pat:      pc.Pattern,
		}
	}
	if e, ok := cfg.Network.(comm.Ethernet); ok && e.Hosts > 0 {
		sys.fabric = &fabricStats{eth: e}
	}
	for i := range cfg.Nodes {
		sys.nodes = append(sys.nodes, newNode(sys, NodeID(i), cfg.Nodes[i], cfg.Layout, sys.rnd.Split(uint64(i))))
	}
	if sys.ccCaps.Deterministic {
		slots := cfg.Nodes[0].DMServers
		for _, nc := range cfg.Nodes[1:] {
			if nc.DMServers < slots {
				slots = nc.DMServers
			}
		}
		sys.ccSlots = sim.NewResource(sys.env, "cc-slots", slots)
	}
	if cfg.Faults.Active() {
		sys.initFaults(*cfg.Faults)
	}
	if cfg.Replication.Active() {
		sys.initRepl()
	}
	for i, spec := range cfg.Users {
		u := &user{
			sys:  sys,
			spec: spec,
			id:   i,
			rnd:  sys.rnd.Split(uint64(10000 + i)),
			// A dedicated backoff stream (Split is pure, so carving it out
			// perturbs nothing) keeps retry jitter from shifting the
			// workload's draws.
			backoffRnd: sys.rnd.Split(uint64(20000 + i)),
		}
		sys.users = append(sys.users, u)
		sys.env.Spawn(fmt.Sprintf("user-%d-%v", i, spec.Kind), u.run)
	}
	if cfg.Open.Active() {
		sys.initOpen()
	}
	return sys, nil
}

// Env exposes the simulation environment (tests and tracing).
func (s *System) Env() *sim.Env { return s.env }

// KernelStats returns the simulation kernel's work counters. They are kept
// out of Results, whose JSON the kernel equivalence pins hash.
func (s *System) KernelStats() sim.KernelStats { return s.env.Stats() }

// Run executes the configured warmup and measurement window and returns
// the collected results. The simulation is torn down before returning:
// stopping the clock at cfg.Duration parks every user process mid-flight,
// and each parked process is a goroutine that would otherwise be blocked
// forever — across a replicated sweep those leaks compound into thousands
// of dead goroutines. The teardown models a crash: journal, store and the
// in-flight transaction registry stay frozen for CrashRecover.
func (s *System) Run() Results {
	warmEnd := 0.0
	if s.cfg.Warmup > 0 {
		warmEnd = s.env.Run(s.cfg.Warmup)
	}
	s.resetStats(warmEnd)
	// Measure through the time the simulation actually stopped: the
	// configured horizon, or earlier if the event queue drained first. A
	// healthy run never drains, since every user is thinking, executing or
	// waiting on something that will end. A drained queue means a wedge:
	// every process parked on a wait nothing will end, such as a global
	// deadlock the probes missed. A short Window is then the symptom of a
	// defect, not a measurement of the workload.
	stop := s.env.Run(s.cfg.Duration)
	res := s.collect(stop)
	s.env.Shutdown()
	return res
}

// CheckWindow returns an error when res, the result of Run, measured a
// shorter window than the configured Duration − Warmup: the run wedged, and
// its numbers describe the defect, not the workload (see Run).
func (s *System) CheckWindow(res Results) error {
	if want := s.cfg.Duration - s.cfg.Warmup; res.Window < want {
		return fmt.Errorf("testbed: wedged: measured a %.0f ms window of the configured %.0f ms (the event queue drained early)", res.Window, want)
	}
	return nil
}

// resetStats truncates all statistics at time t (end of warmup).
func (s *System) resetStats(t float64) {
	for _, n := range s.nodes {
		n.resetStats(t)
	}
	s.degradedMS = 0
	if s.downCount > 0 {
		s.degradedSince = t
	}
	if f := s.fabric; f != nil {
		*f = fabricStats{eth: f.eth}
	}
	if f := s.faults; f != nil {
		f.partitions = 0
		f.partitionMS = 0
		if f.part.Active() {
			f.partitionSince = t
		}
	}
}

// nextTxnID allocates a global transaction id.
func (s *System) nextTxnID() int64 {
	s.txnSeq++
	return s.txnSeq
}

// hop returns the one-way network delay for a message of the given size and
// counts it against both endpoints. For a load-aware model (the Ethernet of
// [ALME79]) the current channel utilization is estimated from the bytes
// sent so far.
func (s *System) hop(from, to NodeID, bytes int) float64 {
	s.nodes[from].msgs.Inc()
	s.nodes[to].msgs.Inc()
	if from == to {
		return 0
	}
	s.netBytes += int64(bytes)
	util := 0.0
	if e, ok := s.cfg.Network.(comm.Ethernet); ok && s.env.Now() > 0 {
		util = float64(s.netBytes) * 8 / s.env.Now() / e.BandwidthBitsPerMS
		if util > 0.95 {
			util = 0.95
		}
	}
	d := s.cfg.Network.Delay(bytes, util)
	if s.fabric != nil {
		s.fabric.account(bytes, util)
		s.trace(-1, KindNone, from, EvNetHop, int(to))
	}
	if s.faults != nil {
		d += s.msgPenalty(from)
	}
	return d
}

// sendProbes delivers probe messages to their destination detectors after
// the network delay, recursing on any forwards. Detection kills the victim.
func (s *System) sendProbes(from NodeID, probes []probe.Probe) {
	for _, pr := range probes {
		pr := pr
		if s.faults != nil && NodeID(pr.Dest) != from {
			// The partition check comes first so a severed link consumes no
			// probe-loss draws: the loss stream stays aligned with the
			// no-partition run.
			if !s.reachable(from, NodeID(pr.Dest)) {
				s.nodes[from].resil.ProbesLost++
				continue
			}
			if s.dropProbe(from) {
				continue
			}
		}
		d := s.hop(from, NodeID(pr.Dest), probeMsgBytes)
		deliver := func() {
			dest := s.nodes[pr.Dest]
			fwd, victim, found := dest.detector.Receive(pr)
			if found {
				dest.globalDead.Inc()
				s.killTxn(int64(victim))
			}
			s.sendProbes(NodeID(pr.Dest), fwd)
		}
		if d <= 0 {
			// Still defer through the event queue so detector state
			// mutations never interleave with a running process.
			s.env.After(0, deliver)
		} else {
			s.env.After(d, deliver)
		}
	}
}

// killTxn aborts a deadlock victim. Victims are interrupted only while
// parked in a lock wait; a kill arriving in any other state is treated as
// stale (the wait edge that formed the cycle is gone) and ignored.
func (s *System) killTxn(gid int64) {
	st, ok := s.reg[gid]
	if !ok || st.finished || st.doomed || !st.parked {
		return
	}
	st.doomed = true
	st.cause = errDeadlockVictim
	st.proc.Interrupt(errDeadlockVictim)
}

// woundTxn aborts a wound-wait victim. Unlike deadlock victims, a wounded
// transaction may be actively executing: it is doomed immediately, and
// interrupted only if it is parked in a lock wait (any other blocking —
// CPU queue, disk queue, commit fan-out — runs to completion and the doom
// is noticed at the next phase boundary). A transaction past its commit
// point is spared — it holds everything it needs and will release shortly.
func (s *System) woundTxn(gid int64) {
	st, ok := s.reg[gid]
	if !ok || st.finished || st.doomed || st.committing {
		return
	}
	st.doomed = true
	st.cause = errDeadlockVictim
	if st.parked {
		st.proc.Interrupt(errDeadlockVictim)
	}
}

// Message size constants (bytes) used for network delay and accounting.
// Request/response messages carry parameters or one response set; protocol
// messages are small. Sizes only matter when a non-zero DelayModel is
// configured.
const (
	requestMsgBytes  = 256
	responseMsgBytes = 512
	controlMsgBytes  = 64
	probeMsgBytes    = 32
)
