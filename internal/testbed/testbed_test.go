package testbed

import (
	"math"
	"testing"

	"carat/internal/disk"
	"carat/internal/storage"
)

// twoNodeConfig builds a paper-style two-node system.
func twoNodeConfig(users []UserSpec, n int, seed uint64) Config {
	return Config{
		Nodes: []NodeConfig{
			{DBDisk: disk.ProfileRM05(), DMServers: 16},
			{DBDisk: disk.ProfileRP06(), DMServers: 16},
		},
		Users:             users,
		RequestsPerTxn:    n,
		RecordsPerRequest: 4,
		Seed:              seed,
		Warmup:            60_000,    // 1 simulated minute
		Duration:          1_000_000, // ~16.7 simulated minutes
	}
}

// mb4Users is the MB4 workload: one user of each kind at each node.
func mb4Users() []UserSpec {
	return []UserSpec{
		{Kind: LRO, Home: 0}, {Kind: LU, Home: 0},
		{Kind: DRO, Home: 0, Remote: 1}, {Kind: DU, Home: 0, Remote: 1},
		{Kind: LRO, Home: 1}, {Kind: LU, Home: 1},
		{Kind: DRO, Home: 1, Remote: 0}, {Kind: DU, Home: 1, Remote: 0},
	}
}

// lb8Users is the LB8 workload on one node: four LRO and four LU users.
func lb8Users(home NodeID) []UserSpec {
	var us []UserSpec
	for i := 0; i < 4; i++ {
		us = append(us, UserSpec{Kind: LRO, Home: home})
		us = append(us, UserSpec{Kind: LU, Home: home})
	}
	return us
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = nil }},
		{"no users", func(c *Config) { c.Users = nil }},
		{"home out of range", func(c *Config) { c.Users[0].Home = 9 }},
		{"remote equals home", func(c *Config) {
			c.Users = []UserSpec{{Kind: DU, Home: 0, Remote: 0}}
		}},
		{"zero n", func(c *Config) { c.RequestsPerTxn = 0 }},
		{"bad buffer ratio", func(c *Config) { c.BufferHitRatio = 1.5 }},
		{"no duration", func(c *Config) { c.Duration = 0 }},
		{"warmup past duration", func(c *Config) { c.Warmup = c.Duration + 1 }},
		{"missing disk", func(c *Config) { c.Nodes[0].DBDisk = nil }},
		{"bad remote frac", func(c *Config) { c.RemoteFrac = 2 }},
		{"unknown concurrency", func(c *Config) { c.Concurrency = 6 }},
		{"negative concurrency", func(c *Config) { c.Concurrency = -1 }},
		{"bad hotspot", func(c *Config) { c.Pattern = storage.Hotspot{Hot: 5, Frac: -2} }},
		{"NaN zipf", func(c *Config) { c.Pattern = storage.NewZipf(math.NaN()) }},
		{"bad placement anchor", func(c *Config) {
			c.Placement = &PlacementConfig{Pattern: storage.Hotspot{Hot: 0.2, Frac: 2}}
		}},
	}
	for _, tc := range cases {
		cfg := twoNodeConfig(mb4Users(), 4, 1)
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestLB8LocalWorkloadRuns(t *testing.T) {
	cfg := twoNodeConfig(lb8Users(1), 4, 7)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	b := res.Nodes[1]
	if b.TotalTxnThroughput <= 0 {
		t.Fatal("no transactions committed")
	}
	if b.TxnThroughput[DRO] != 0 || b.TxnThroughput[DU] != 0 {
		t.Fatal("LB8 must not run distributed transactions")
	}
	// Node 0 hosts no users: it must stay idle.
	if res.Nodes[0].TotalTxnThroughput != 0 || res.Nodes[0].CPUUtilization > 0.001 {
		t.Fatalf("node 0 should be idle: %+v", res.Nodes[0])
	}
	// All committed work is accounted: record throughput = txn throughput * n * 4.
	wantRecs := b.TotalTxnThroughput * 4 * 4
	if math.Abs(b.RecordThroughput-wantRecs) > 0.02*wantRecs {
		t.Fatalf("record throughput %v, want ~%v", b.RecordThroughput, wantRecs)
	}
	// Sanity: with the shared DB/log disk the disk is the bottleneck.
	if b.DBDiskUtilization < 0.5 {
		t.Fatalf("disk utilization %v suspiciously low for 8 users", b.DBDiskUtilization)
	}
	if b.CPUUtilization <= 0 || b.CPUUtilization >= 1 {
		t.Fatalf("cpu utilization %v out of range", b.CPUUtilization)
	}
}

func TestMB4DistributedWorkloadRuns(t *testing.T) {
	cfg := twoNodeConfig(mb4Users(), 8, 11)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	for i, nr := range res.Nodes {
		if nr.TotalTxnThroughput <= 0 {
			t.Fatalf("node %d: no throughput", i)
		}
		for _, k := range []TxnKind{LRO, LU, DRO, DU} {
			if nr.TxnThroughput[k] <= 0 {
				t.Fatalf("node %d: no %v commits", i, k)
			}
		}
		if nr.Messages == 0 {
			t.Fatalf("node %d: no messages counted", i)
		}
	}
	// Node A (faster disk) must outperform node B.
	if res.Nodes[0].TotalTxnThroughput <= res.Nodes[1].TotalTxnThroughput {
		t.Fatalf("node A (%v) should beat node B (%v)",
			res.Nodes[0].TotalTxnThroughput, res.Nodes[1].TotalTxnThroughput)
	}
	// LRO should commit at roughly twice the LU rate (1 vs 3 I/Os per record).
	a := res.Nodes[0]
	if a.TxnThroughput[LRO] <= a.TxnThroughput[LU] {
		t.Fatalf("LRO (%v) should beat LU (%v)", a.TxnThroughput[LRO], a.TxnThroughput[LU])
	}
}

func TestDeadlocksAppearAtLargeN(t *testing.T) {
	cfg := twoNodeConfig(mb4Users(), 16, 3)
	// A small database makes conflicts frequent.
	cfg.Layout = storage.Layout{Granules: 300, RecordsPerGran: 6}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	var deadlocks, commits int64
	for _, nr := range res.Nodes {
		deadlocks += nr.LocalDeadlocks + nr.GlobalDeadlocks
		for _, k := range []TxnKind{LRO, LU, DRO, DU} {
			commits += nr.Commits[k]
		}
	}
	if commits == 0 {
		t.Fatal("no commits despite contention — livelock?")
	}
	if deadlocks == 0 {
		t.Fatal("expected deadlocks on a 300-granule database at n=16")
	}
	// Resubmissions: submissions must exceed commits when deadlocks occur.
	var subs int64
	for _, nr := range res.Nodes {
		for _, k := range []TxnKind{LRO, LU, DRO, DU} {
			subs += nr.Submissions[k]
		}
	}
	if subs <= commits {
		t.Fatalf("submissions (%d) must exceed commits (%d) under deadlocks", subs, commits)
	}
}

func TestThroughputFallsWithN(t *testing.T) {
	// The paper's central qualitative result: normalized record throughput
	// decreases as n grows beyond ~8 due to deadlock rollback.
	recTp := func(n int) float64 {
		cfg := twoNodeConfig(lb8Users(1), n, 5)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		return res.Nodes[1].RecordThroughput
	}
	at8, at20 := recTp(8), recTp(20)
	if at20 >= at8 {
		t.Fatalf("record throughput must fall from n=8 (%v) to n=20 (%v)", at8, at20)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Results {
		cfg := twoNodeConfig(mb4Users(), 8, 99)
		cfg.Duration = 300_000
		cfg.Warmup = 30_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	a, b := run(), run()
	for i := range a.Nodes {
		if a.Nodes[i].TotalTxnThroughput != b.Nodes[i].TotalTxnThroughput {
			t.Fatalf("node %d throughput differs across identical runs: %v vs %v",
				i, a.Nodes[i].TotalTxnThroughput, b.Nodes[i].TotalTxnThroughput)
		}
		if a.Nodes[i].CPUUtilization != b.Nodes[i].CPUUtilization {
			t.Fatalf("node %d CPU differs across identical runs", i)
		}
	}
}

func TestSeparateLogDiskIncreasesThroughput(t *testing.T) {
	base := twoNodeConfig(lb8Users(0), 8, 21)
	shared, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	sharedRes := shared.Run()

	sep := twoNodeConfig(lb8Users(0), 8, 21)
	sep.Nodes[0].LogDisk = disk.ProfileRM05()
	sepSys, err := New(sep)
	if err != nil {
		t.Fatal(err)
	}
	sepRes := sepSys.Run()

	if sepRes.Nodes[0].TotalTxnThroughput <= sharedRes.Nodes[0].TotalTxnThroughput {
		t.Fatalf("separate log disk (%v tps) should beat shared (%v tps)",
			sepRes.Nodes[0].TotalTxnThroughput, sharedRes.Nodes[0].TotalTxnThroughput)
	}
}

func TestBufferPoolReducesDiskLoad(t *testing.T) {
	base := twoNodeConfig(lb8Users(0), 8, 31)
	noBuf, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	noBufRes := noBuf.Run()

	buf := twoNodeConfig(lb8Users(0), 8, 31)
	buf.BufferHitRatio = 0.8
	bufSys, err := New(buf)
	if err != nil {
		t.Fatal(err)
	}
	bufRes := bufSys.Run()

	if bufRes.Nodes[0].TotalTxnThroughput <= noBufRes.Nodes[0].TotalTxnThroughput {
		t.Fatalf("80%% buffer hits (%v tps) should beat none (%v tps)",
			bufRes.Nodes[0].TotalTxnThroughput, noBufRes.Nodes[0].TotalTxnThroughput)
	}
}

func TestMeanResponseAndLittlesLaw(t *testing.T) {
	// With zero think time, each user always has exactly one transaction in
	// flight: N = X * R per user class (Little's law over users).
	cfg := twoNodeConfig(lb8Users(0), 8, 41)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	a := res.Nodes[0]
	for _, k := range []TxnKind{LRO, LU} {
		x := a.TxnThroughput[k] / 1000 // per ms
		r := a.MeanResponse[k]
		users := 4.0
		if got := x * r; math.Abs(got-users) > 0.25*users {
			t.Fatalf("%v: X*R = %v, want ~%v users (Little's law)", k, got, users)
		}
	}
}

func TestGlobalDeadlockDetection(t *testing.T) {
	// Only DU users on a tiny database: global (cross-site) deadlocks are
	// the dominant cycle type. The probe machinery must fire.
	users := []UserSpec{
		{Kind: DU, Home: 0, Remote: 1}, {Kind: DU, Home: 0, Remote: 1},
		{Kind: DU, Home: 1, Remote: 0}, {Kind: DU, Home: 1, Remote: 0},
	}
	cfg := twoNodeConfig(users, 12, 17)
	cfg.Layout = storage.Layout{Granules: 40, RecordsPerGran: 6}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	var global, commits int64
	for _, nr := range res.Nodes {
		global += nr.GlobalDeadlocks
		commits += nr.Commits[DU]
	}
	if commits == 0 {
		t.Fatal("no commits — global deadlocks not resolved?")
	}
	if global == 0 {
		t.Fatal("no global deadlocks detected on a 40-granule database")
	}
}

func TestNoStuckTransactionsAtEnd(t *testing.T) {
	// After a long run every user is still making progress: the number of
	// live processes equals users plus any in-flight 2PC helpers, and no
	// node's lock table retains locks from finished transactions.
	cfg := twoNodeConfig(mb4Users(), 12, 53)
	cfg.Layout = storage.Layout{Granules: 200, RecordsPerGran: 6}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	for i, nr := range res.Nodes {
		if nr.TotalTxnThroughput <= 0 {
			t.Fatalf("node %d stalled", i)
		}
	}
	// Registry holds only in-flight transactions (at most one per user
	// since users run sequentially).
	if len(sys.reg) > len(cfg.Users) {
		t.Fatalf("registry leaked: %d entries for %d users", len(sys.reg), len(cfg.Users))
	}
}

func TestDMPoolLimitsConcurrency(t *testing.T) {
	// With only two DM servers for eight users, transactions queue for a
	// DM before doing any work: throughput must fall versus a full pool.
	full := twoNodeConfig(lb8Users(0), 8, 71)
	fullSys, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	fullRes := fullSys.Run()

	tight := twoNodeConfig(lb8Users(0), 8, 71)
	tight.Nodes[0].DMServers = 2
	tightSys, err := New(tight)
	if err != nil {
		t.Fatal(err)
	}
	tightRes := tightSys.Run()

	if tightRes.Nodes[0].TotalTxnThroughput >= fullRes.Nodes[0].TotalTxnThroughput {
		t.Fatalf("2 DM servers (%v tps) should throttle vs 16 (%v tps)",
			tightRes.Nodes[0].TotalTxnThroughput, fullRes.Nodes[0].TotalTxnThroughput)
	}
	if tightRes.Nodes[0].TotalTxnThroughput <= 0 {
		t.Fatal("tight pool deadlocked entirely")
	}
}

func TestMultiCPUSimulator(t *testing.T) {
	// CPU-bound regime (buffer pool + separate log): a second processor
	// raises throughput.
	single := twoNodeConfig(lb8Users(0), 8, 73)
	single.BufferHitRatio = 0.9
	single.Nodes[0].LogDisk = disk.ProfileRM05()
	s1, err := New(single)
	if err != nil {
		t.Fatal(err)
	}
	r1 := s1.Run()

	dual := twoNodeConfig(lb8Users(0), 8, 73)
	dual.BufferHitRatio = 0.9
	dual.Nodes[0].LogDisk = disk.ProfileRM05()
	dual.Nodes[0].CPUs = 2
	s2, err := New(dual)
	if err != nil {
		t.Fatal(err)
	}
	r2 := s2.Run()

	if r2.Nodes[0].TotalTxnThroughput <= r1.Nodes[0].TotalTxnThroughput {
		t.Fatalf("second CPU should help when CPU-bound: %v vs %v",
			r2.Nodes[0].TotalTxnThroughput, r1.Nodes[0].TotalTxnThroughput)
	}
}

func TestThinkTimeReducesUtilization(t *testing.T) {
	busy := twoNodeConfig(lb8Users(0), 4, 61)
	busySys, err := New(busy)
	if err != nil {
		t.Fatal(err)
	}
	busyRes := busySys.Run()

	idle := twoNodeConfig(lb8Users(0), 4, 61)
	idle.Params = DefaultParams(2)
	for n := range idle.Params.Costs {
		for k, c := range idle.Params.Costs[n] {
			c.ThinkTime = 2000 // 2 s of thinking between transactions
			idle.Params.Costs[n][k] = c
		}
	}
	idleSys, err := New(idle)
	if err != nil {
		t.Fatal(err)
	}
	idleRes := idleSys.Run()

	if idleRes.Nodes[0].CPUUtilization >= busyRes.Nodes[0].CPUUtilization {
		t.Fatalf("think time should reduce CPU utilization: %v vs %v",
			idleRes.Nodes[0].CPUUtilization, busyRes.Nodes[0].CPUUtilization)
	}
}
