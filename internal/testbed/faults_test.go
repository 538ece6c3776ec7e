package testbed

import (
	"math"
	"reflect"
	"testing"

	"carat/internal/wal"
)

// faultTestConfig is the short two-node configuration the fault tests run.
func faultTestConfig(seed uint64) Config {
	cfg := twoNodeConfig(mb4Users(), 8, seed)
	cfg.Warmup = 10_000
	cfg.Duration = 300_000
	return cfg
}

// TestZeroFaultPlanInert pins the inertness guarantee: a present-but-zero
// FaultPlan must leave the simulation byte-identical to one configured
// without it (same RNG draws, same event order, same Results).
func TestZeroFaultPlanInert(t *testing.T) {
	run := func(f *FaultPlan) Results {
		cfg := faultTestConfig(11)
		cfg.Faults = f
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	plain := run(nil)
	zero := run(&FaultPlan{})
	if !reflect.DeepEqual(plain, zero) {
		t.Fatalf("a zero FaultPlan changed the measurement:\nwithout: %+v\nwith:    %+v", plain, zero)
	}
}

// activePlan is a plan exercising every fault mechanism at once.
func activePlan() *FaultPlan {
	return &FaultPlan{
		Seed:              7,
		Crashes:           []SiteCrash{{Site: 1, AtMS: 60_000, DownForMS: 10_000}},
		CrashMTTFMS:       120_000,
		CrashMTTRMS:       4_000,
		MsgLossProb:       0.05,
		MsgExtraDelayProb: 0.1,
		PrepareTimeoutMS:  4_000,
		LockWaitTimeoutMS: 8_000,
	}
}

// TestFaultRunDeterministic pins fault determinism: the same workload seed
// and the same FaultPlan must reproduce bit-identical Results.
func TestFaultRunDeterministic(t *testing.T) {
	run := func() Results {
		cfg := faultTestConfig(23)
		cfg.Faults = activePlan()
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with the same seed and fault plan diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestCrashRestartAvailability drives one explicit crash/restart cycle and
// checks the availability accounting and the trace events around it.
func TestCrashRestartAvailability(t *testing.T) {
	const crashAt, downFor = 100_000.0, 20_000.0
	cfg := faultTestConfig(5)
	cfg.Faults = &FaultPlan{
		Crashes: []SiteCrash{{Site: 1, AtMS: crashAt, DownForMS: downFor}},
	}
	var crashes, restarts []TraceEvent
	cfg.Trace = func(ev TraceEvent) {
		switch ev.Ev {
		case EvCrash:
			crashes = append(crashes, ev)
		case EvRestart:
			restarts = append(restarts, ev)
		}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()

	if len(crashes) != 1 || len(restarts) != 1 {
		t.Fatalf("trace saw %d crash and %d restart events, want 1 and 1", len(crashes), len(restarts))
	}
	if c := crashes[0]; c.Node != 1 || c.Txn != -1 || c.T != crashAt {
		t.Fatalf("crash event %+v, want node 1, txn -1, t=%v", c, crashAt)
	}
	if r := restarts[0]; r.Node != 1 || r.T < crashAt+downFor {
		t.Fatalf("restart event %+v, want node 1 no earlier than %v", r, crashAt+downFor)
	}

	nd := res.Nodes[1]
	if nd.Crashes != 1 {
		t.Fatalf("node 1 crashes = %d, want 1", nd.Crashes)
	}
	// Downtime runs from the crash until restart recovery completes, so it
	// is at least the outage and should end well before the run does.
	if nd.DowntimeMS < downFor || nd.DowntimeMS > downFor+60_000 {
		t.Fatalf("node 1 downtime = %v ms, want within [%v, %v]", nd.DowntimeMS, downFor, downFor+60_000)
	}
	if nd.Availability >= 1 || nd.Availability <= 0.5 {
		t.Fatalf("node 1 availability = %v, want in (0.5, 1)", nd.Availability)
	}
	if got := 1 - nd.DowntimeMS/res.Window; !closeTo(nd.Availability, got, 1e-12) {
		t.Fatalf("availability %v inconsistent with downtime (%v)", nd.Availability, got)
	}
	if up := res.Nodes[0]; up.Crashes != 0 || up.DowntimeMS != 0 || up.Availability != 1 {
		t.Fatalf("surviving node 0 reports outage stats: %+v", up)
	}
	if res.DegradedMS < downFor {
		t.Fatalf("system degraded time = %v ms, want >= %v", res.DegradedMS, downFor)
	}
	var crashAborts int64
	for _, n := range res.Nodes {
		crashAborts += n.CrashAborts
	}
	if crashAborts == 0 {
		t.Fatal("no transaction was aborted by the crash; with 8 users in flight at least one must be")
	}
}

// closeTo reports |a-b| <= eps.
func closeTo(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// TestPrepareWindowCrashResolvesInDoubt is the two-phase-commit recovery
// regression test: under a distributed-update-only workload with frequent
// short crashes, some crashes land inside the prepare window, leaving
// force-written Prepared records at the crashed slave. Restart recovery must
// resolve every one of them against the coordinator's durable log — no
// branch may stay in doubt once its site is back up.
func TestPrepareWindowCrashResolvesInDoubt(t *testing.T) {
	users := []UserSpec{
		{Kind: DU, Home: 0, Remote: 1}, {Kind: DU, Home: 0, Remote: 1},
		{Kind: DU, Home: 0, Remote: 1}, {Kind: DU, Home: 0, Remote: 1},
		{Kind: DU, Home: 1, Remote: 0}, {Kind: DU, Home: 1, Remote: 0},
		{Kind: DU, Home: 1, Remote: 0}, {Kind: DU, Home: 1, Remote: 0},
	}
	cfg := twoNodeConfig(users, 8, 31)
	cfg.Warmup = 10_000
	cfg.Duration = 600_000
	cfg.Faults = &FaultPlan{
		CrashMTTFMS:       15_000,
		CrashMTTRMS:       1_000,
		LockWaitTimeoutMS: 10_000,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()

	var crashes, resolved int64
	for _, n := range res.Nodes {
		crashes += n.Crashes
		resolved += n.InDoubtCommitted + n.InDoubtAborted
	}
	if crashes < 5 {
		t.Fatalf("only %d crashes in the run; the plan should produce many", crashes)
	}
	if resolved == 0 {
		t.Fatal("no crash landed in a 2PC prepare window: the regression test exercised nothing")
	}

	// Every durably Prepared branch at an up site must have a resolution
	// record, unless its transaction was still in flight when the clock
	// stopped (sys.reg keeps exactly those frozen).
	for id, nd := range sys.nodes {
		if nd.down {
			continue
		}
		prepared := map[int64]bool{}
		resolved := map[int64]bool{}
		for r := range nd.journal.All() {
			switch r.Kind {
			case wal.Prepared:
				prepared[r.Txn] = true
			case wal.Commit, wal.Abort:
				resolved[r.Txn] = true
			}
		}
		for gid := range prepared {
			if resolved[gid] {
				continue
			}
			if _, inFlight := sys.reg[gid]; inFlight {
				continue
			}
			t.Errorf("node %d: transaction %d is stuck in doubt: durable Prepared record, no resolution, not in flight", id, gid)
		}
	}
}

// TestCrashPathLeavesNoGoroutines extends the PR 1 leak regression to the
// fault machinery: repeated runs with crashes, restarts and timeouts (which
// spawn recovery processes and park users on restart events) must still
// return the goroutine count to baseline.
func TestCrashPathLeavesNoGoroutines(t *testing.T) {
	mkCfg := func(seed uint64) Config {
		cfg := twoNodeConfig(mb4Users(), 8, seed)
		cfg.Warmup = 5_000
		cfg.Duration = 60_000
		cfg.Faults = &FaultPlan{
			// One site is down when the clock stops: shutdown must also
			// unwind users parked on the restart event.
			Crashes:           []SiteCrash{{Site: 0, AtMS: 20_000, DownForMS: 5_000}, {Site: 1, AtMS: 55_000, DownForMS: 60_000}},
			CrashMTTFMS:       30_000,
			CrashMTTRMS:       2_000,
			PrepareTimeoutMS:  2_000,
			LockWaitTimeoutMS: 4_000,
		}
		return cfg
	}

	// Warm up once so lazy runtime goroutines don't count against us.
	sys, err := New(mkCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()

	baseline := settledGoroutines()
	const runs = 20
	for i := 0; i < runs; i++ {
		sys, err := New(mkCfg(uint64(200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	after := settledGoroutines()
	if after > baseline+5 {
		t.Fatalf("goroutines grew from %d to %d over %d faulted runs: the crash path leaks simulation processes",
			baseline, after, runs)
	}
}

// TestFaultsAndResilienceRejectNonFinite pins that every float field of a
// fault plan and a resilience policy rejects NaN and +Inf at New. Every
// range check is false for NaN, so without an explicit finiteness check a
// NaN loss probability ran as no loss, a crash at NaN never fired, and a
// NaN heartbeat interval ran the failure detector wild.
func TestFaultsAndResilienceRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	faults := []struct {
		name string
		mut  func(*FaultPlan)
	}{
		{"CrashMTTFMS +Inf", func(f *FaultPlan) { f.CrashMTTFMS = inf }},
		{"CrashMTTRMS NaN", func(f *FaultPlan) { f.CrashMTTFMS, f.CrashMTTRMS = 1000, nan }},
		{"MsgLossProb NaN", func(f *FaultPlan) { f.MsgLossProb = nan }},
		{"MsgRetransmitMS NaN", func(f *FaultPlan) { f.MsgLossProb, f.MsgRetransmitMS = 0.1, nan }},
		{"MsgRetransmitMS +Inf", func(f *FaultPlan) { f.MsgLossProb, f.MsgRetransmitMS = 0.1, inf }},
		{"MsgExtraDelayProb NaN", func(f *FaultPlan) { f.MsgExtraDelayProb = nan }},
		{"MsgExtraDelayMS +Inf", func(f *FaultPlan) { f.MsgExtraDelayProb, f.MsgExtraDelayMS = 0.1, inf }},
		{"PrepareTimeoutMS NaN", func(f *FaultPlan) { f.PrepareTimeoutMS = nan }},
		{"LockWaitTimeoutMS +Inf", func(f *FaultPlan) { f.LockWaitTimeoutMS = inf }},
		{"RetryBackoffMS NaN", func(f *FaultPlan) { f.RetryBackoffMS = nan }},
		{"ProbeLossProb NaN", func(f *FaultPlan) { f.ProbeLossProb = nan }},
		{"ProbeLossUntilMS +Inf", func(f *FaultPlan) { f.ProbeLossUntilMS = inf }},
		{"PartitionMTBFMS NaN", func(f *FaultPlan) { f.PartitionMTBFMS = nan }},
		{"PartitionMeanMS +Inf", func(f *FaultPlan) { f.PartitionMTBFMS, f.PartitionMeanMS = 1000, inf }},
		{"PartitionSplitProb NaN", func(f *FaultPlan) { f.PartitionMTBFMS, f.PartitionSplitProb = 1000, nan }},
		{"HeartbeatIntervalMS NaN", func(f *FaultPlan) { f.PartitionMTBFMS, f.HeartbeatIntervalMS = 1000, nan }},
		{"SuspectAfterMS +Inf", func(f *FaultPlan) { f.PartitionMTBFMS, f.SuspectAfterMS = 1000, inf }},
		{"crash AtMS NaN", func(f *FaultPlan) { f.Crashes = []SiteCrash{{Site: 1, AtMS: nan, DownForMS: 1000}} }},
		{"crash AtMS +Inf", func(f *FaultPlan) { f.Crashes = []SiteCrash{{Site: 1, AtMS: inf, DownForMS: 1000}} }},
		{"crash DownForMS NaN", func(f *FaultPlan) { f.Crashes = []SiteCrash{{Site: 1, AtMS: 1000, DownForMS: nan}} }},
		{"crash DownForMS +Inf", func(f *FaultPlan) { f.Crashes = []SiteCrash{{Site: 1, AtMS: 1000, DownForMS: inf}} }},
		{"partition AtMS NaN", func(f *FaultPlan) {
			f.Partitions = []PartitionSchedule{{Groups: [][]NodeID{{0}, {1}}, AtMS: nan, HealAfterMS: 1000}}
		}},
		{"partition HealAfterMS +Inf", func(f *FaultPlan) {
			f.Partitions = []PartitionSchedule{{Groups: [][]NodeID{{0}, {1}}, AtMS: 1000, HealAfterMS: inf}}
		}},
		{"gray AtMS NaN", func(f *FaultPlan) { f.GraySites = []GrayFailure{{Site: 1, AtMS: nan, ForMS: 1000, CPUFactor: 2}} }},
		{"gray ForMS +Inf", func(f *FaultPlan) { f.GraySites = []GrayFailure{{Site: 1, AtMS: 0, ForMS: inf, CPUFactor: 2}} }},
		{"gray CPUFactor NaN", func(f *FaultPlan) { f.GraySites = []GrayFailure{{Site: 1, AtMS: 0, ForMS: 1000, CPUFactor: nan}} }},
		{"gray DiskFactor +Inf", func(f *FaultPlan) { f.GraySites = []GrayFailure{{Site: 1, AtMS: 0, ForMS: 1000, DiskFactor: inf}} }},
	}
	for _, tc := range faults {
		cfg := faultTestConfig(1)
		cfg.Faults = &FaultPlan{}
		tc.mut(cfg.Faults)
		if _, err := New(cfg); err == nil {
			t.Errorf("fault plan %s: accepted", tc.name)
		}
	}
	resilience := []struct {
		name string
		r    Resilience
	}{
		{"BaseBackoffMS +Inf", Resilience{Retry: RetryPolicy{BaseBackoffMS: inf}}},
		{"MaxBackoffMS NaN", Resilience{Retry: RetryPolicy{BaseBackoffMS: 10, MaxBackoffMS: nan}}},
		{"Multiplier NaN", Resilience{Retry: RetryPolicy{BaseBackoffMS: 10, Multiplier: nan}}},
		{"Multiplier +Inf", Resilience{Retry: RetryPolicy{BaseBackoffMS: 10, Multiplier: inf}}},
		{"JitterFrac NaN", Resilience{Retry: RetryPolicy{BaseBackoffMS: 10, JitterFrac: nan}}},
		{"AbortRateThreshold NaN", Resilience{Admission: AdmissionPolicy{MaxMPL: 2, AbortRateThreshold: nan}}},
		{"WindowMS +Inf", Resilience{Admission: AdmissionPolicy{MaxMPL: 2, AbortRateThreshold: 1, WindowMS: inf}}},
		{"ShedBackoffMS NaN", Resilience{Admission: AdmissionPolicy{MaxMPL: 2, Shed: true, ShedBackoffMS: nan}}},
		{"ProbeRetryMS +Inf", Resilience{ProbeRetryMS: inf}},
	}
	for _, tc := range resilience {
		cfg := faultTestConfig(1)
		cfg.Resilience = tc.r
		if _, err := New(cfg); err == nil {
			t.Errorf("resilience %s: accepted", tc.name)
		}
	}
}
