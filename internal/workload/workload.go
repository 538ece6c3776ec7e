// Package workload defines the paper's synthetic transaction workloads
// (Section 2) — LB8, MB4, MB8 and UB6 — as a single description that
// translates both into a testbed simulator configuration (the
// "measurement" side) and into an analytical model input (the "modeling"
// side), guaranteeing the two are parameterized identically.
package workload

import (
	"fmt"

	"carat/internal/cc"
	"carat/internal/comm"
	"carat/internal/core"
	"carat/internal/disk"
	"carat/internal/repl"
	"carat/internal/storage"
	"carat/internal/testbed"
)

// Workload is a complete experiment description.
type Workload struct {
	Name     string
	NumNodes int
	Users    []testbed.UserSpec

	// RequestsPerTxn is the paper's transaction size n (swept 4..20);
	// RecordsPerRequest is fixed at 4 in the paper's experiments.
	RequestsPerTxn    int
	RecordsPerRequest int
	// RemoteFrac splits a distributed transaction's requests between the
	// home and slave sites (0.5: l = r = n/2).
	RemoteFrac float64

	Layout storage.Layout
	Params testbed.Params

	// DBDisks and LogDisks give per-node device models; a nil LogDisks
	// entry shares the database disk (the paper's forced configuration).
	DBDisks  []disk.ServiceModel
	LogDisks []disk.ServiceModel

	// CPUs is the processor count per node (default 1; 2 models the
	// dual-processor VAX 11/782).
	CPUs int
	// DiskStripes spreads each site's database over this many identical
	// devices (default 1, the paper's single shared disk).
	DiskStripes int

	// DetailedDisks replaces the fixed per-block service times with
	// positional seek+rotation disk models calibrated to the same means
	// (28 ms RM05, 40 ms RP06). The analytical model keeps using the
	// means — by BCMP theory the product-form solution depends on service
	// distributions only through their means for FCFS-exponential
	// stations, and this knob measures how far that robustness stretches
	// in practice.
	DetailedDisks bool

	// Pattern selects records within a site; nil means the paper's
	// uniform access. A skewed pattern only affects the simulator — the
	// analytical model retains its uniform-access assumption.
	Pattern storage.Pattern

	// BufferHitRatio and Alpha extend beyond the paper (both zero there).
	BufferHitRatio float64
	Alpha          float64
	// EthernetAlpha replaces the fixed Alpha with the Almes–Lazowska
	// Ethernet model of Section 3: the simulator estimates channel load
	// from bytes on the wire, and the analytical model closes the loop by
	// feeding its own message rate back into the network model each
	// iteration (the two-level structure the paper describes).
	EthernetAlpha bool

	// Concurrency selects the simulator's concurrency control paradigm.
	// The analytical model covers only cc.TwoPhaseDetect (the paper's
	// scheme); Model returns an error for anything else.
	Concurrency cc.Paradigm

	// DeadlockAdjust calibrates the model's two-cycle deadlock
	// approximation (Section 5.4.3 allows a measured adjusting factor).
	DeadlockAdjust float64

	// ModelTMSerialization enables the optional TM-serialization
	// correction in the analytical model (the paper ignores it and points
	// at [JACO83]; see core.Model.IncludeTMSerialization).
	ModelTMSerialization bool

	// Faults optionally injects site crashes, message faults and protocol
	// timeouts into simulator runs (the analytical model ignores it). A nil
	// or zero plan leaves the simulation unchanged.
	Faults *testbed.FaultPlan

	// Resilience configures the simulator's retry, admission-control and
	// probe-retransmission policies (the analytical model ignores it). The
	// zero value leaves the simulation unchanged.
	Resilience testbed.Resilience

	// Replication configures replicated granules in the simulator (the
	// analytical model ignores it — the paper's system is single-copy, and
	// replication is a testbed extension). The zero value (or Factor 1)
	// leaves the simulation unchanged.
	Replication repl.Policy

	// Open switches simulator runs to open arrivals (see
	// testbed.OpenConfig): transactions arrive at rate λ from an unbounded
	// population instead of the paper's closed terminal loops. The closed
	// Users still parameterize the analytical model — which is how the
	// capacity sweep compares measured open capacity against the closed
	// model's bottleneck bound. Nil leaves the simulation unchanged.
	Open *testbed.OpenConfig

	// Placement activates the data-directory placement subsystem in the
	// simulator (see testbed.PlacementConfig): distributed transactions
	// resolve their executing sites through a placement.Directory over the
	// fleet's granule space instead of the per-user Remote wiring. The
	// analytical model ignores it. Nil leaves the simulation unchanged.
	Placement *testbed.PlacementConfig

	// FabricHosts, when positive, routes inter-site messages through a
	// shared Ethernet fabric with this many contending hosts (see
	// comm.Ethernet.Hosts): delay grows with the fleet's offered network
	// load, and the wire's utilization, inflation and queueing delay are
	// reported in Results. Zero keeps the Alpha/EthernetAlpha behavior.
	FabricHosts int

	// FabricBandwidthBitsPerMS overrides the fabric's raw bandwidth when
	// FabricHosts is positive (zero keeps comm.DefaultEthernet's 10 Mb/s).
	// The scale-out study uses the original 2.94 Mb/s experimental
	// Ethernet rate so the shared medium can genuinely bind before the
	// paper's CPU costs do.
	FabricBandwidthBitsPerMS float64

	// DMServers overrides the per-site DM process-pool size (zero keeps
	// the testbed's 16). A distributed submission holds one slot at its
	// home and at every participating remote for its whole lifetime, and
	// the pool has no deadlock detection: the two-site experiments are
	// gridlock-proof by arithmetic (2 sites × MPL ≤ 8 ≤ 16 slots), but an
	// N-site fleet must provision at least sites × MPL slots per site or
	// cross-site hold-and-wait cycles freeze the whole system.
	DMServers int
}

// twoNode fills the standard two-node configuration of the experiments:
// Node A with the RM05 database disk, Node B with the RP06.
func twoNode(name string, users []testbed.UserSpec, n int) Workload {
	return Workload{
		Name:              name,
		NumNodes:          2,
		Users:             users,
		RequestsPerTxn:    n,
		RecordsPerRequest: 4,
		RemoteFrac:        0.5,
		Layout:            storage.DefaultLayout(),
		Params:            testbed.DefaultParams(2),
		DBDisks:           []disk.ServiceModel{disk.ProfileRM05(), disk.ProfileRP06()},
		LogDisks:          []disk.ServiceModel{nil, nil},
	}
}

// LB8 is the local-only workload: at each node, four users run local
// read-only transactions and four run local update transactions.
func LB8(n int) Workload {
	var users []testbed.UserSpec
	for node := 0; node < 2; node++ {
		for i := 0; i < 4; i++ {
			users = append(users,
				testbed.UserSpec{Kind: testbed.LRO, Home: testbed.NodeID(node)},
				testbed.UserSpec{Kind: testbed.LU, Home: testbed.NodeID(node)},
			)
		}
	}
	return twoNode("LB8", users, n)
}

// MB4 is the distributed mix: at each node, exactly one user of each of
// the four transaction types.
func MB4(n int) Workload {
	var users []testbed.UserSpec
	for node := 0; node < 2; node++ {
		other := testbed.NodeID(1 - node)
		users = append(users,
			testbed.UserSpec{Kind: testbed.LRO, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.LU, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.DRO, Home: testbed.NodeID(node), Remote: other},
			testbed.UserSpec{Kind: testbed.DU, Home: testbed.NodeID(node), Remote: other},
		)
	}
	return twoNode("MB4", users, n)
}

// MB8 is MB4 doubled: two users of each type at each node.
func MB8(n int) Workload {
	var users []testbed.UserSpec
	for node := 0; node < 2; node++ {
		other := testbed.NodeID(1 - node)
		for i := 0; i < 2; i++ {
			users = append(users,
				testbed.UserSpec{Kind: testbed.LRO, Home: testbed.NodeID(node)},
				testbed.UserSpec{Kind: testbed.LU, Home: testbed.NodeID(node)},
				testbed.UserSpec{Kind: testbed.DRO, Home: testbed.NodeID(node), Remote: other},
				testbed.UserSpec{Kind: testbed.DU, Home: testbed.NodeID(node), Remote: other},
			)
		}
	}
	return twoNode("MB8", users, n)
}

// UB6 is the local-intensive distributed workload: at each node, two LRO
// users, two LU users, one DRO user and one DU user.
func UB6(n int) Workload {
	var users []testbed.UserSpec
	for node := 0; node < 2; node++ {
		other := testbed.NodeID(1 - node)
		users = append(users,
			testbed.UserSpec{Kind: testbed.LRO, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.LRO, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.LU, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.LU, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.DRO, Home: testbed.NodeID(node), Remote: other},
			testbed.UserSpec{Kind: testbed.DU, Home: testbed.NodeID(node), Remote: other},
		)
	}
	return twoNode("UB6", users, n)
}

// ByName returns the named standard workload at transaction size n.
func ByName(name string, n int) (Workload, error) {
	switch name {
	case "LB8", "lb8":
		return LB8(n), nil
	case "MB4", "mb4":
		return MB4(n), nil
	case "MB8", "mb8":
		return MB8(n), nil
	case "UB6", "ub6":
		return UB6(n), nil
	default:
		return Workload{}, fmt.Errorf("workload: unknown workload %q (want LB8, MB4, MB8 or UB6)", name)
	}
}

// remoteRequests returns r(t) for the workload's transaction size,
// matching the testbed's request scheduler exactly.
func (w Workload) remoteRequests() int {
	r := int(w.RemoteFrac*float64(w.RequestsPerTxn) + 0.5)
	if r > w.RequestsPerTxn {
		r = w.RequestsPerTxn
	}
	return r
}

// TestbedConfig builds the simulator configuration for this workload.
func (w Workload) TestbedConfig(seed uint64, warmup, duration float64) testbed.Config {
	nodes := make([]testbed.NodeConfig, w.NumNodes)
	for i := range nodes {
		db := w.DBDisks[i]
		if w.DetailedDisks {
			// Fresh positional models per configuration: they carry head
			// state, so sharing one across devices or runs would break
			// reproducibility.
			db = detailedModelFor(w.DBDisks[i])
		}
		nodes[i] = testbed.NodeConfig{DBDisk: db, DMServers: w.DMServers, DBDiskStripes: w.DiskStripes, CPUs: w.CPUs}
		if w.LogDisks != nil && w.LogDisks[i] != nil {
			nodes[i].LogDisk = w.LogDisks[i]
		}
	}
	var network comm.DelayModel
	if w.Alpha > 0 {
		network = comm.FixedDelay{D: w.Alpha}
	}
	if w.EthernetAlpha {
		network = comm.DefaultEthernet()
	}
	if w.FabricHosts > 0 {
		eth := comm.DefaultEthernet()
		eth.Hosts = w.FabricHosts
		if w.FabricBandwidthBitsPerMS > 0 {
			eth.BandwidthBitsPerMS = w.FabricBandwidthBitsPerMS
		}
		network = eth
	}
	// Faults, Open and Placement are shared, not copied: Config.Validate
	// fills their defaults on private copies.
	return testbed.Config{
		Nodes:             nodes,
		Users:             w.Users,
		Faults:            w.Faults,
		Open:              w.Open,
		Placement:         w.Placement,
		Resilience:        w.Resilience,
		Replication:       w.Replication,
		Params:            w.Params,
		Network:           network,
		Layout:            w.Layout,
		RequestsPerTxn:    w.RequestsPerTxn,
		RecordsPerRequest: w.RecordsPerRequest,
		RemoteFrac:        w.RemoteFrac,
		Pattern:           w.Pattern,
		Concurrency:       w.Concurrency,
		BufferHitRatio:    w.BufferHitRatio,
		Seed:              seed,
		Warmup:            warmup,
		Duration:          duration,
	}
}

// detailedModelFor returns a seek+rotation disk model calibrated to the
// same mean block time as the given flat profile: mean = expected seek
// (one third of the stroke) + half a revolution + transfer.
func detailedModelFor(flat disk.ServiceModel) disk.ServiceModel {
	mean := flat.Mean(disk.Read)
	const (
		rev      = 16.7 // 3600 rpm
		transfer = 0.4
		minSeek  = 6.0
	)
	wantSeek := mean - rev/2 - transfer
	maxSeek := minSeek
	if wantSeek > minSeek {
		// E[seek] = min + (max-min)*sqrt(1/3) under uniform positions.
		maxSeek = minSeek + (wantSeek-minSeek)/0.5773502691896258
	}
	return &disk.SeekRotational{
		Cylinders:      823,
		BlocksPerCyl:   4, // 3000+ blocks spread over the stroke
		MinSeek:        minSeek,
		MaxSeek:        maxSeek,
		RevolutionTime: rev,
		TransferTime:   transfer,
	}
}

// coreType maps a testbed transaction kind to its coordinator-side model
// chain type.
func coreType(k testbed.TxnKind) core.Type {
	switch k {
	case testbed.LRO:
		return core.LRO
	case testbed.LU:
		return core.LU
	case testbed.DRO:
		return core.DROC
	default:
		return core.DUC
	}
}

// Model builds the analytical model input for this workload, using exactly
// the parameters the simulator uses.
func (w Workload) Model() (*core.Model, error) {
	if w.Concurrency != cc.TwoPhaseDetect {
		return nil, fmt.Errorf("workload: the analytical model covers only 2PL with deadlock detection, not %v", w.Concurrency)
	}
	m := &core.Model{
		Sites:                  make([]*core.Site, w.NumNodes),
		Alpha:                  w.Alpha,
		DeadlockAdjust:         w.DeadlockAdjust,
		InflateCW:              true,
		IncludeTMSerialization: w.ModelTMSerialization,
	}
	if w.EthernetAlpha {
		// The average protocol message, weighing small control messages
		// against one response set per request.
		const avgMsgBytes = 256
		eth := comm.DefaultEthernet()
		m.AlphaModel = func(msgsPerMS float64) float64 {
			util := msgsPerMS * avgMsgBytes * 8 / eth.BandwidthBitsPerMS
			if util > 0.95 {
				util = 0.95
			}
			return eth.MeanDelay(avgMsgBytes, util)
		}
	}
	for i := range m.Sites {
		logTime := w.DBDisks[i].Mean(disk.ForceWrite)
		sep := false
		if w.LogDisks != nil && w.LogDisks[i] != nil {
			logTime = w.LogDisks[i].Mean(disk.ForceWrite)
			sep = true
		}
		m.Sites[i] = &core.Site{
			Granules:          w.Layout.Granules,
			RecordsPerGranule: w.Layout.RecordsPerGran,
			DiskTime:          w.DBDisks[i].Mean(disk.Read),
			LogDiskTime:       logTime,
			SeparateLog:       sep,
			CPUs:              w.CPUs,
			DiskStripes:       w.DiskStripes,
			BufferHitRatio:    w.BufferHitRatio,
			Chains:            make(map[core.Type]*core.Chain),
		}
	}

	n := w.RequestsPerTxn
	r := w.remoteRequests()
	l := n - r

	var chainErr error
	addChain := func(site int, ty core.Type, kind testbed.TxnKind, local, remote int, slaveSites []int, coordSite int) *core.Chain {
		ch := m.Sites[site].Chains[ty]
		if ch != nil && (ch.Local != local || ch.Remote != remote) {
			// The model aggregates same-type transactions at a site into
			// one chain, so their request splits must agree.
			chainErr = fmt.Errorf("workload: site %d chain %v: users disagree on request split (%d/%d vs %d/%d)",
				site, ty, ch.Local, ch.Remote, local, remote)
			return ch
		}
		if ch == nil {
			costs := w.Params.CostsFor(testbed.NodeID(site), kind)
			commitOps := costs.CommitIOs
			if ty.Slave() {
				commitOps = w.Params.SlaveCommitIOs[kind]
			}
			ch = &core.Chain{
				Type:              ty,
				Local:             local,
				Remote:            remote,
				RecordsPerRequest: w.RecordsPerRequest,
				UCPU:              costs.UCPU,
				TMCPU:             costs.TMCPU,
				DMCPU:             costs.DMCPU,
				LRCPU:             costs.LRCPU,
				DMIOCPU:           costs.DMIOCPU,
				InitCPU:           costs.InitCPU,
				CommitCPU:         costs.CommitCPU,
				AbortCPU:          costs.AbortCPU,
				UnlockCPU:         costs.UnlockCPU,
				DMIOOps:           costs.DMIOCount,
				CommitOps:         commitOps,
				ThinkTime:         costs.ThinkTime,
				SlaveSites:        slaveSites,
				CoordSite:         coordSite,
			}
			if ty.Slave() {
				ch.InitCPU = 0 // slaves have no INIT or U phases
				ch.UCPU = 0
			}
			m.Sites[site].Chains[ty] = ch
		}
		ch.Population++
		return ch
	}

	for _, u := range w.Users {
		home := int(u.Home)
		ty := coreType(u.Kind)
		if !u.Kind.Distributed() {
			addChain(home, ty, u.Kind, n, 0, nil, 0)
			continue
		}
		remotes := u.RemoteSites()
		split := testbed.RemoteSplit(r, len(remotes))
		// Slave sites that receive no requests at this transaction size
		// are dropped from the chain topology.
		var slaveSites []int
		for i, rs := range remotes {
			if split[i] > 0 {
				slaveSites = append(slaveSites, int(rs))
			}
		}
		addChain(home, ty, u.Kind, l, r, slaveSites, 0)
		for i, rs := range remotes {
			if split[i] == 0 {
				continue
			}
			addChain(int(rs), ty.Counterpart(), u.Kind, split[i], 0, nil, home)
		}
	}
	if chainErr != nil {
		return nil, chainErr
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
