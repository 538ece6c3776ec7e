package experiment

import (
	"testing"

	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// partitionMB4 is MB4 with a scheduled mid-run partition, the failure
// detector, and finite timeouts attached — the partition analogue of
// faultyMB4 for the determinism pins.
func partitionMB4(n int) workload.Workload {
	wl := workload.MB4(n)
	wl.Faults = &testbed.FaultPlan{
		Partitions: []testbed.PartitionSchedule{{
			Groups:      [][]testbed.NodeID{{0}, {1}},
			AtMS:        40_000,
			HealAfterMS: 20_000,
		}},
		PrepareTimeoutMS:  4_000,
		LockWaitTimeoutMS: 8_000,
	}
	return wl
}

// TestPartitionSweepSmoke runs a short goodput-vs-partition-duration sweep
// and checks its accounting: the zero-duration baseline is the reference,
// and longer partitions cost goodput.
func TestPartitionSweepSmoke(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 180_000
	plan := testbed.FaultPlan{PrepareTimeoutMS: 4_000, LockWaitTimeoutMS: 8_000}
	pts, err := PartitionSweep(workload.MB4(8), []float64{0, 20_000, 60_000}, []int{1, 2}, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	for _, p := range pts {
		if p.DurationMS == 0 {
			if p.GoodputFrac != 1 || p.Results.PartitionMS != 0 || p.PartitionShed != 0 {
				t.Fatalf("baseline point not partition-free: %+v", p)
			}
			continue
		}
		if p.Results.PartitionMS != p.DurationMS {
			t.Fatalf("R=%d dur=%v: severed %.0fms, want the full duration", p.Factor, p.DurationMS, p.Results.PartitionMS)
		}
		// MB4 is mostly local work, so the goodput dip is small — assert
		// the fraction is sane rather than a particular cliff shape.
		if p.GoodputFrac <= 0 || p.GoodputFrac > 1.1 {
			t.Fatalf("R=%d dur=%v: goodput fraction %v out of range", p.Factor, p.DurationMS, p.GoodputFrac)
		}
		if p.PartitionShed == 0 {
			t.Fatalf("R=%d dur=%v: no submissions shed during the partition", p.Factor, p.DurationMS)
		}
		if p.SuspectEvents == 0 {
			t.Fatalf("R=%d dur=%v: detector never suspected anyone", p.Factor, p.DurationMS)
		}
	}
}

// TestPartitionChaosAuditClean is the split-brain acceptance audit: twenty
// randomized runs at R=2 with scheduled partitions drawn into every plan,
// requiring every invariant — cross-site atomicity, replica agreement,
// post-heal reconciliation — to hold in every run.
func TestPartitionChaosAuditClean(t *testing.T) {
	wl := workload.MB4(8)
	wl.Replication = repl.Policy{Factor: 2}
	report, err := RunChaos(wl, ChaosOptions{Runs: 20, Seed: 3, Partitions: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad := report.Violations(); len(bad) > 0 {
		t.Fatalf("partition chaos violations:\n%v", bad)
	}
}
