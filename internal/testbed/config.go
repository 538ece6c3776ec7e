// Package testbed is a discrete-event simulator of CARAT, the distributed
// database testbed the paper measures (Section 2). It reproduces the
// process and message structure of Figure 1 — TR user processes, one TM
// server per node (a serialization point), a pool of DM servers per node —
// and the three protocols the model integrates:
//
//   - two-phase locking at block granularity with local wait-for-graph
//     deadlock detection and Chandy–Misra probes for global deadlocks,
//   - before-image journaling with rollback of deadlock victims, and
//   - centralized two-phase commit with a force-written commit record.
//
// In this reproduction the simulator plays the role of the paper's VAX
// hardware: its measurements are the "empirical" side of every
// model-vs-measurement table and figure. Service demands are taken from
// Table 2 of the paper (see DefaultParams).
package testbed

import (
	"fmt"
	"slices"
	"strings"

	"carat/internal/cc"
	"carat/internal/comm"
	"carat/internal/disk"
	"carat/internal/placement"
	"carat/internal/repl"
	"carat/internal/storage"
)

// TxnKind is one of the four workload transaction types (Section 2).
type TxnKind int

// KindNone tags trace events not tied to a transaction (site crash and
// restart events).
const KindNone TxnKind = -1

const (
	// LRO is a local read-only transaction.
	LRO TxnKind = iota
	// LU is a local update transaction.
	LU
	// DRO is a distributed read-only transaction.
	DRO
	// DU is a distributed update transaction.
	DU
)

// TxnKinds lists the four kinds in enum order, the order every per-kind
// table and report walks them in.
var TxnKinds = [...]TxnKind{LRO, LU, DRO, DU}

// numKinds sizes the per-kind arrays, indexed by TxnKind.
const numKinds = len(TxnKinds)

// String returns the paper's abbreviation for the kind.
func (k TxnKind) String() string {
	switch k {
	case KindNone:
		return "-"
	case LRO:
		return "LRO"
	case LU:
		return "LU"
	case DRO:
		return "DRO"
	case DU:
		return "DU"
	default:
		return fmt.Sprintf("TxnKind(%d)", int(k))
	}
}

// Update reports whether the kind writes the database.
func (k TxnKind) Update() bool { return k == LU || k == DU }

// Distributed reports whether the kind issues remote requests.
func (k TxnKind) Distributed() bool { return k == DRO || k == DU }

// NodeID identifies a site.
type NodeID = comm.NodeID

// UserSpec describes one TR user process: where it runs, what it submits,
// and (for distributed types) which remote nodes serve its remote requests.
type UserSpec struct {
	Kind TxnKind
	Home NodeID
	// Remote is the slave site for DRO/DU users. The paper's two-node
	// experiments always use "the other node".
	Remote NodeID
	// Remotes optionally lists several slave sites; remote requests are
	// spread evenly across them and two-phase commit coordinates all of
	// them. When empty, [Remote] is used. Extends the paper's two-node
	// setup ("the architecture generalizes to any number of nodes").
	Remotes []NodeID
}

// RemoteSites returns the user's slave sites (at least one for
// distributed kinds).
func (u UserSpec) RemoteSites() []NodeID {
	if !u.Kind.Distributed() {
		return nil
	}
	if len(u.Remotes) > 0 {
		return u.Remotes
	}
	return []NodeID{u.Remote}
}

// RemoteSplit returns how many of the nRemote remote requests go to each
// of k slave sites: the first nRemote%k sites get one extra. Both the
// simulator and the analytical model use this split, keeping them
// parameterized identically.
func RemoteSplit(nRemote, k int) []int {
	out := make([]int, k)
	if k == 0 {
		return out
	}
	base, extra := nRemote/k, nRemote%k
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

// PhaseCosts carries the per-phase resource requirements for one
// transaction type at one node — the six basic parameters of Table 2 plus
// the derived phase costs the paper computed in [JENQ86].
// All times are milliseconds.
type PhaseCosts struct {
	// The six basic parameters (Table 2).
	UCPU      float64 // R_U: user application processing per request
	TMCPU     float64 // R_TM: TM processing per message (larger for DRO/DU)
	DMCPU     float64 // R_DM: DM processing between two lock requests
	LRCPU     float64 // R_LR: lock request processing incl. local deadlock detection
	DMIOCPU   float64 // R_DMIO(cpu): CPU to start/finish the I/O burst per granule
	DMIOCount int     // disk I/Os per granule access (1 read-only, 3 update)

	// Derived phase costs (reconstructed from the basic parameters; the
	// paper computed them in the thesis and does not print them).
	InitCPU   float64 // INIT: TBEGIN + DBOPEN processing at the coordinator
	CommitCPU float64 // TC: commit protocol CPU per participating site
	CommitIOs int     // TCIO: force-written log records at this site on commit
	AbortCPU  float64 // TA: fixed rollback CPU
	UnlockCPU float64 // UL: CPU to release all locks (charged once)
	ThinkTime float64 // R_UT: user think time between transactions (0 in the paper)
}

// Params maps every (node, kind) pair to its phase costs, plus the
// slave-side costs for distributed transactions.
type Params struct {
	// Costs[node][kind] are the coordinator/local costs at that node.
	Costs map[NodeID]map[TxnKind]PhaseCosts
	// SlaveCommitIOs is the number of force-written log records at a slave
	// site on commit: 1 for update slaves (the prepare record), 0 for
	// read-only slaves (read-only 2PC optimization).
	SlaveCommitIOs map[TxnKind]int
}

// CostsFor returns the phase costs for kind at node, panicking on unknown
// pairs so configuration errors surface immediately.
func (p Params) CostsFor(n NodeID, k TxnKind) PhaseCosts {
	byKind, ok := p.Costs[n]
	if !ok {
		panic(fmt.Sprintf("testbed: no costs for node %d", n))
	}
	c, ok := byKind[k]
	if !ok {
		panic(fmt.Sprintf("testbed: no costs for %v at node %d", k, n))
	}
	return c
}

// DefaultParams returns Table 2 of the paper for an n-node system: every
// node gets Node A's CPU costs (the CPUs were identical VAX 11/780s), and
// the per-node disk speed difference lives in the disk profiles, not here.
// Derived phase costs follow the reconstruction documented in DESIGN.md:
//
//	InitCPU   = 2*TMCPU + DMCPU   (TBEGIN and DBOPEN round trips)
//	CommitCPU = TMCPU             (commit message processing per site)
//	AbortCPU  = DMCPU             (rollback administration)
//	UnlockCPU = 2.0               (release all locks)
func DefaultParams(nodes int) Params {
	p := Params{
		Costs: make(map[NodeID]map[TxnKind]PhaseCosts),
		SlaveCommitIOs: map[TxnKind]int{
			DRO: 0, // read-only slave votes READ-ONLY, writes nothing
			DU:  1, // update slave force-writes its prepare record
		},
	}
	for n := 0; n < nodes; n++ {
		byKind := make(map[TxnKind]PhaseCosts)
		for _, k := range TxnKinds {
			tm := 8.0
			if k.Distributed() {
				tm = 12.0
			}
			dm, ioCPU, ios := 5.4, 1.5, 1
			if k.Update() {
				dm, ioCPU, ios = 8.6, 2.5, 3
			}
			byKind[k] = PhaseCosts{
				UCPU:      7.8,
				TMCPU:     tm,
				DMCPU:     dm,
				LRCPU:     2.2,
				DMIOCPU:   ioCPU,
				DMIOCount: ios,
				InitCPU:   2*tm + dm,
				CommitCPU: tm,
				CommitIOs: 1,
				AbortCPU:  dm,
				UnlockCPU: 2.0,
				ThinkTime: 0,
			}
		}
		p.Costs[NodeID(n)] = byKind
	}
	return p
}

// CCProtocol is the testbed's historical name for the concurrency-control
// paradigm a run uses, kept as an alias so callers that convert to it (the
// benchmark does) still compile. CARAT's scheme — and the only one the
// analytical model covers — is cc.TwoPhaseDetect; the others are the
// classical baselines the contemporaneous modeling literature compares
// against (Rosenkrantz's prevention schemes, Galler's basic timestamp
// ordering) plus the modern OCC and deterministic paradigms.
type CCProtocol = cc.Paradigm

// PlacementConfig activates the data-directory placement subsystem: the
// granule space of the whole fleet (Layout scaled by the node count) is
// mapped onto home sites by a placement.Directory, and every distributed
// transaction resolves its remote sites through the directory instead of
// the hand-wired UserSpec.Remote/Remotes path. Nil keeps the historical
// two-site routing — and the byte-pinned default traces — untouched.
type PlacementConfig struct {
	// Strategy selects the granule→site mapping (see placement.Parse).
	Strategy placement.Strategy
	// Affinity, for the locality strategy, is the fraction of a
	// distributed transaction's requests pinned to the submitting site's
	// own shard; the rest scatter through the directory's anchor draw.
	// Ignored by hash and range. Must be in [0,1].
	Affinity float64
	// Pattern draws each scattered request's anchor record over the
	// global record space (defaults to a fresh copy of Config.Pattern).
	// storage.Zipf caches its CDF for a single layout, so the anchor
	// needs its own instance rather than sharing Config.Pattern's.
	Pattern storage.Pattern
}

// NodeConfig describes one site's hardware.
type NodeConfig struct {
	// DBDisk is the database disk service model (Table 2 folds positioning
	// into a per-block mean: 28 ms RM05 on Node A, 40 ms RP06 on Node B).
	DBDisk disk.ServiceModel
	// LogDisk, when non-nil, puts the recovery log on its own device. The
	// paper's configuration (nil) shares the database disk — a compromise
	// it explicitly calls out as a bottleneck.
	LogDisk disk.ServiceModel
	// CPUs is the number of processors at the node (default 1, the
	// paper's single-processor configuration; 2 models a VAX 11/782-class
	// dual processor).
	CPUs int
	// DMServers is the DM pool size fixed at system start-up.
	DMServers int
	// DBDiskStripes stripes the database over this many identical devices
	// (block g lives on device g mod stripes) — the paper's "multiple DISK
	// queueing centers can be used to represent multiple disks for the
	// database" (Section 4). Default 1, the measured configuration.
	DBDiskStripes int
}

// Config assembles a complete simulated CARAT system.
type Config struct {
	Nodes  []NodeConfig
	Users  []UserSpec
	Params Params
	Layout storage.Layout // per-site database size (paper: 3000 x 6)

	// RequestsPerTxn is the transaction size n; RecordsPerRequest is fixed
	// at four in the paper's experiments.
	RequestsPerTxn    int
	RecordsPerRequest int

	// Pattern selects records within a site (default uniform, the paper's
	// assumption).
	Pattern storage.Pattern

	// Network is the inter-site delay model (default zero, the paper's
	// measured operating point for two nodes).
	Network comm.DelayModel

	// RemoteFrac is the fraction of a distributed transaction's n requests
	// that execute at the slave site (default 0.5: half local, half
	// remote, so l(t) = r(t) = n/2 in the model's terms).
	RemoteFrac float64

	// BufferHitRatio h in [0,1) lets a fraction h of granule reads hit a
	// shared buffer and skip the disk — the database-buffering extension
	// from the paper's conclusions. The paper's testbed has h = 0.
	BufferHitRatio float64

	// Concurrency selects the concurrency control paradigm (default
	// cc.TwoPhaseDetect, the paper's scheme).
	Concurrency cc.Paradigm

	Seed uint64
	// Warmup and Duration bound the run: statistics are reset at Warmup
	// and collected until Duration (both in ms).
	Warmup   float64
	Duration float64

	// Trace, when non-nil, receives every protocol event (see TraceEvent).
	// Tracing is synchronous and can slow long runs; intended for protocol
	// validation and debugging.
	Trace func(TraceEvent)

	// Faults, when non-nil and active, injects site crashes, message loss
	// and protocol timeouts into the run (see FaultPlan). A nil or zero
	// plan leaves the simulation byte-identical to a fault-free build.
	Faults *FaultPlan

	// Resilience configures retry/backoff, per-site admission control and
	// probe retransmission (see Resilience). The zero value is fully inert.
	Resilience Resilience

	// Replication configures replicated granules with primary-copy locking
	// (see repl.Policy): every granule keeps Factor copies on distinct
	// sites, writes propagate to all available copies after commit, and
	// reads run read-one or read-quorum. The zero value (or Factor 1) is
	// fully inert — a testbed extension beyond the paper's single-copy
	// system.
	Replication repl.Policy

	// Placement, when non-nil, activates the data-directory subsystem:
	// distributed transactions resolve their executing sites through a
	// placement.Directory over the fleet's global granule space instead of
	// the per-user Remote/Remotes wiring (see PlacementConfig). Nil leaves
	// routing — and the byte-pinned default traces — untouched.
	Placement *PlacementConfig

	// Open, when non-nil and active, drives the testbed with open arrivals
	// (see OpenConfig): per-site Poisson processes on dedicated RNG
	// substreams, optionally burst-modulated and ramped, submitting
	// transactions from a multi-class mix. Users may then be empty (the
	// closed terminals are replaced) or non-empty (mixed open + closed
	// load). Nil leaves closed-mode runs byte-identical.
	Open *OpenConfig
}

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("testbed: no nodes")
	}
	if len(c.Users) == 0 && !c.Open.Active() {
		return fmt.Errorf("testbed: no users")
	}
	for i, u := range c.Users {
		if int(u.Home) < 0 || int(u.Home) >= len(c.Nodes) {
			return fmt.Errorf("testbed: user %d home node %d out of range", i, u.Home)
		}
		// Under directory-driven placement the per-user Remote/Remotes
		// wiring is ignored, so generated N-site configs need not fill it.
		if u.Kind.Distributed() && c.Placement == nil {
			seen := map[NodeID]bool{}
			for _, r := range u.RemoteSites() {
				switch {
				case int(r) < 0 || int(r) >= len(c.Nodes):
					return fmt.Errorf(
						"testbed: user %d (%v homed at site %d) lists unreachable remote site %d: remotes must name existing sites in [0, %d]",
						i, u.Kind, u.Home, r, len(c.Nodes)-1)
				case r == u.Home:
					return fmt.Errorf(
						"testbed: user %d (%v homed at site %d) lists its own home as a remote: remotes must name other sites",
						i, u.Kind, u.Home)
				case seen[r]:
					return fmt.Errorf(
						"testbed: user %d (%v homed at site %d) lists remote site %d twice: remotes must be distinct",
						i, u.Kind, u.Home, r)
				}
				seen[r] = true
			}
		}
	}
	if c.RequestsPerTxn <= 0 {
		return fmt.Errorf("testbed: RequestsPerTxn must be positive")
	}
	if c.RecordsPerRequest <= 0 {
		c.RecordsPerRequest = 4
	}
	if c.Layout.Granules == 0 {
		c.Layout = storage.DefaultLayout()
	}
	if c.Pattern == nil {
		c.Pattern = storage.Uniform{}
	}
	if err := storage.CheckPattern(c.Pattern); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if !c.Concurrency.Valid() {
		return fmt.Errorf("testbed: concurrency control %d unknown (valid modes: %s)",
			int(c.Concurrency), strings.Join(cc.Names(), ", "))
	}
	if c.Network == nil {
		c.Network = comm.ZeroDelay{}
	}
	if c.BufferHitRatio < 0 || c.BufferHitRatio >= 1 {
		return fmt.Errorf("testbed: BufferHitRatio %v out of [0,1)", c.BufferHitRatio)
	}
	if c.RemoteFrac == 0 {
		c.RemoteFrac = 0.5
	}
	if c.RemoteFrac < 0 || c.RemoteFrac > 1 {
		return fmt.Errorf("testbed: RemoteFrac %v out of [0,1]", c.RemoteFrac)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("testbed: Duration must be positive")
	}
	if c.Warmup < 0 || c.Warmup >= c.Duration {
		return fmt.Errorf("testbed: Warmup must be in [0, Duration)")
	}
	for i := range c.Nodes {
		if c.Nodes[i].DBDisk == nil {
			return fmt.Errorf("testbed: node %d has no database disk model", i)
		}
		if c.Nodes[i].DMServers <= 0 {
			c.Nodes[i].DMServers = 16
		}
		if c.Nodes[i].DBDiskStripes <= 0 {
			c.Nodes[i].DBDiskStripes = 1
		}
		if c.Nodes[i].CPUs <= 0 {
			c.Nodes[i].CPUs = 1
		}
	}
	if c.Params.Costs == nil {
		c.Params = DefaultParams(len(c.Nodes))
	}
	if c.Faults != nil {
		// Fault plans are shareable across replications (sweeps hand many
		// concurrent runs the same pointer), so validation — which fills
		// scalar defaults — operates on a private copy and re-points this
		// config at it, never writing through the caller's plan.
		fp := *c.Faults
		if err := fp.validate(len(c.Nodes)); err != nil {
			return err
		}
		c.Faults = &fp
	}
	if err := c.Resilience.validate(); err != nil {
		return err
	}
	if err := c.Replication.Validate(len(c.Nodes)); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if c.Open.Active() {
		// Open configs are shared across a sweep's concurrent cells too:
		// validation fills the default class mix on a private copy.
		oc := *c.Open
		oc.Classes = slices.Clone(oc.Classes)
		if err := oc.validate(len(c.Nodes)); err != nil {
			return err
		}
		c.Open = &oc
	}
	if c.Placement != nil {
		// Like fault plans, placement configs are shared across a sweep's
		// concurrent cells: validation fills defaults on a private copy.
		pc := *c.Placement
		if !pc.Strategy.Valid() {
			return fmt.Errorf("testbed: placement strategy %d unknown (valid strategies: %v)",
				int(pc.Strategy), placement.Names())
		}
		if len(c.Nodes) < 2 {
			return fmt.Errorf("testbed: placement needs at least 2 sites, got %d", len(c.Nodes))
		}
		if pc.Affinity < 0 || pc.Affinity > 1 {
			return fmt.Errorf("testbed: placement affinity %v out of [0,1]", pc.Affinity)
		}
		if pc.Pattern == nil {
			if z, ok := c.Pattern.(*storage.Zipf); ok {
				// Zipf caches its CDF for one layout; the anchor draws
				// over the global layout, so it gets its own instance.
				pc.Pattern = storage.NewZipf(z.Theta)
			} else {
				pc.Pattern = c.Pattern
			}
		}
		if err := storage.CheckPattern(pc.Pattern); err != nil {
			return fmt.Errorf("testbed: placement anchor: %w", err)
		}
		c.Placement = &pc
	}
	return nil
}
