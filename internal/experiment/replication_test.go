package experiment

import (
	"testing"

	"carat/internal/disk"
	"carat/internal/repl"
	"carat/internal/storage"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// replicatedMB4 is MB4 with an R=2 quorum-read replication policy attached.
func replicatedMB4(n int) workload.Workload {
	wl := workload.MB4(n)
	wl.Replication = repl.Policy{Factor: 2, Read: repl.ReadQuorum}
	return wl
}

// TestReplicationSweepAvailability pins the subsystem's payoff: with one
// site crashed during the window, the R=2 read-one point must sustain
// strictly higher availability (degraded-goodput ratio) than the
// unreplicated baseline, because reads of the down site's granules fail
// over to the surviving replica instead of blocking.
func TestReplicationSweepAvailability(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 300_000
	plan := testbed.FaultPlan{
		Crashes: []testbed.SiteCrash{{Site: 1, AtMS: 60_000, DownForMS: 120_000}},
	}
	pts, err := ReplicationSweep(workload.MB4(8), []int{1, 2}, []repl.ReadMode{repl.ReadOne}, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	base, rep2 := pts[0], pts[1]
	if base.Factor != 1 || rep2.Factor != 2 {
		t.Fatalf("factors = %d, %d, want 1, 2", base.Factor, rep2.Factor)
	}
	if base.FailoverReads != 0 {
		t.Fatalf("baseline served %d failover reads, want 0", base.FailoverReads)
	}
	if rep2.FailoverReads == 0 {
		t.Fatal("R=2 point served no failover reads during the outage")
	}
	if base.DegradedGoodputFrac <= 0 || base.DegradedGoodputFrac >= 1 {
		t.Fatalf("baseline degraded-goodput fraction = %v, want in (0, 1)", base.DegradedGoodputFrac)
	}
	if rep2.DegradedGoodputFrac <= base.DegradedGoodputFrac {
		t.Fatalf("degraded-goodput fraction: R=2 %v is not strictly above the R=1 baseline %v",
			rep2.DegradedGoodputFrac, base.DegradedGoodputFrac)
	}
	for _, p := range pts {
		if p.TxnPerSec <= 0 || p.MeanCommitLatencyMS <= 0 {
			t.Fatalf("R=%d: degenerate point %+v", p.Factor, p)
		}
	}
}

// TestReplicationSweepBaselineOnce checks the grid shape: factor-1 points
// ignore the read-mode axis and appear exactly once.
func TestReplicationSweepBaselineOnce(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 60_000
	plan := testbed.FaultPlan{}
	pts, err := ReplicationSweep(workload.MB4(4), []int{1, 2},
		[]repl.ReadMode{repl.ReadOne, repl.ReadQuorum}, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3 (one baseline + two R=2 read modes)", len(pts))
	}
	if pts[0].Factor != 1 || pts[0].ReadMode != "one" {
		t.Fatalf("first point = R=%d read=%s, want the R=1 read-one baseline",
			pts[0].Factor, pts[0].ReadMode)
	}
	if pts[1].ReadMode != "one" || pts[2].ReadMode != "quorum" {
		t.Fatalf("R=2 read modes = %s, %s, want one, quorum", pts[1].ReadMode, pts[2].ReadMode)
	}
	if pts[2].QuorumReads == 0 {
		t.Fatal("quorum point counted no quorum confirmations")
	}
}

// threeNodeMB is a hand-built three-site distributed mix (the standard
// workloads are all two-node), so the sweep can reach R=3.
func threeNodeMB(n int) workload.Workload {
	var users []testbed.UserSpec
	for node := 0; node < 3; node++ {
		other := testbed.NodeID((node + 1) % 3)
		users = append(users,
			testbed.UserSpec{Kind: testbed.LRO, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.LU, Home: testbed.NodeID(node)},
			testbed.UserSpec{Kind: testbed.DRO, Home: testbed.NodeID(node), Remote: other},
			testbed.UserSpec{Kind: testbed.DU, Home: testbed.NodeID(node), Remote: other},
		)
	}
	return workload.Workload{
		Name:              "MB-3site",
		NumNodes:          3,
		Users:             users,
		RequestsPerTxn:    n,
		RecordsPerRequest: 4,
		RemoteFrac:        0.5,
		Layout:            storage.DefaultLayout(),
		Params:            testbed.DefaultParams(3),
		DBDisks:           []disk.ServiceModel{disk.ProfileRM05(), disk.ProfileRP06(), disk.ProfileRM05()},
		LogDisks:          []disk.ServiceModel{nil, nil, nil},
	}
}

// TestReplicationSweepFactorThree covers the full R ∈ {1, 2, 3} grid on a
// three-site workload: every factor must run, and replica traffic must grow
// with the factor (each write reaches R-1 replicas).
func TestReplicationSweepFactorThree(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 120_000
	plan := testbed.FaultPlan{
		Crashes: []testbed.SiteCrash{{Site: 2, AtMS: 40_000, DownForMS: 40_000}},
	}
	pts, err := ReplicationSweep(threeNodeMB(8), []int{1, 2, 3}, []repl.ReadMode{repl.ReadOne}, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Factor != i+1 {
			t.Fatalf("point %d has factor %d", i, p.Factor)
		}
		if p.TxnPerSec <= 0 {
			t.Fatalf("R=%d: no goodput", p.Factor)
		}
	}
	if pts[0].ReplicaApplies != 0 {
		t.Fatalf("baseline journaled %d replica applies, want 0", pts[0].ReplicaApplies)
	}
	if pts[1].ReplicaApplies == 0 || pts[2].ReplicaApplies <= pts[1].ReplicaApplies {
		t.Fatalf("replica applies must grow with the factor: R=2 %d, R=3 %d",
			pts[1].ReplicaApplies, pts[2].ReplicaApplies)
	}
}

// TestReplicatedChaosAuditClean runs the randomized fault audit over ten
// seeds with R=2 replication and requires every invariant — replica
// agreement included — to hold in every run.
func TestReplicatedChaosAuditClean(t *testing.T) {
	wl := workload.MB4(8)
	wl.Replication = repl.Policy{Factor: 2}
	report, err := RunChaos(wl, ChaosOptions{Runs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad := report.Violations(); len(bad) > 0 {
		t.Fatalf("replicated chaos violations:\n%v", bad)
	}
}
