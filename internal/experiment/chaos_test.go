package experiment

import (
	"reflect"
	"testing"

	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// chaosOpts keeps unit-test audits short while still running the full
// default batch of randomized plans.
func chaosOpts(runs int) ChaosOptions {
	return ChaosOptions{
		Runs:     runs,
		Seed:     0xC4A05,
		Warmup:   5_000,
		Duration: 90_000,
	}
}

// TestChaosAuditClean is the chaos harness's main assertion: twenty runs of
// the mixed workload under randomized bounded fault plans and resilience
// policies produce zero invariant violations — no transaction half-commits,
// none vanishes, every commit survives restart replay, and goodput never
// collapses below the floor.
func TestChaosAuditClean(t *testing.T) {
	report, err := RunChaos(workload.MB4(8), chaosOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	if report.BaselineTPS <= 0 {
		t.Fatalf("fault-free baseline goodput = %v txn/s, want > 0", report.BaselineTPS)
	}
	if len(report.Runs) != 20 {
		t.Fatalf("ran %d chaos runs, want 20", len(report.Runs))
	}
	if bad := report.Violations(); len(bad) != 0 {
		t.Fatalf("chaos audit found %d violation(s):\n%s", len(bad), bad)
	}
	// Each run must record the drawn configuration for replay.
	for _, run := range report.Runs {
		if !run.Plan.Active() {
			t.Errorf("run %d drew an inactive fault plan", run.Run)
		}
		if !run.Resilience.Active() {
			t.Errorf("run %d drew an inactive resilience policy", run.Run)
		}
	}
}

// ccChaos runs the standard crash+loss chaos batch with the MB4 mix under
// the given concurrency-control paradigm.
func ccChaos(t *testing.T, prot testbed.CCProtocol) *ChaosReport {
	t.Helper()
	wl := workload.MB4(8)
	wl.Concurrency = prot
	report, err := RunChaos(wl, chaosOpts(20))
	if err != nil {
		t.Fatal(err)
	}
	if report.BaselineTPS <= 0 {
		t.Fatalf("%v fault-free baseline goodput = %v txn/s, want > 0", prot, report.BaselineTPS)
	}
	if len(report.Runs) != 20 {
		t.Fatalf("ran %d chaos runs, want 20", len(report.Runs))
	}
	if bad := report.Violations(); len(bad) != 0 {
		t.Fatalf("%v chaos audit found %d violation(s):\n%s", prot, len(bad), bad)
	}
	return report
}

// TestQueCCChaosAuditClean extends the chaos audit to the deterministic
// paradigm: twenty randomized crash+loss plans under QueCC must preserve
// every atomicity, durability and goodput invariant. The drawn resilience
// policies always arm probe retransmission, so this also exercises the
// probe gating (QueCC allocates no detector to retransmit from).
func TestQueCCChaosAuditClean(t *testing.T) {
	ccChaos(t, testbed.CCQueCC)
}

// TestOCCChaosAuditClean is the same audit under optimistic execution:
// commit-time validation aborts must compose with crashes, message loss and
// prepare timeouts without half-commits or lost transactions.
func TestOCCChaosAuditClean(t *testing.T) {
	ccChaos(t, testbed.CCOCC)
}

// TestChaosDeterministic pins that the whole audit is a pure function of
// (workload, options): same seed, same report.
func TestChaosDeterministic(t *testing.T) {
	a, err := RunChaos(workload.MB4(8), chaosOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(workload.MB4(8), chaosOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical chaos audits diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestReplicaCatchUpDrainedOnce is the regression test for the replica
// catch-up double drain: with seed 26 a partition heal starts draining a
// site's catch-up queue, the site crashes while an apply's log write holds,
// and restart recovery drains the same queue. Each queued apply must be
// popped exactly once: the run completes and the audit is clean.
func TestReplicaCatchUpDrainedOnce(t *testing.T) {
	wl := workload.MB4(8)
	wl.Concurrency = testbed.CCQueCC
	wl.Replication = repl.Policy{Factor: 2, Read: repl.ReadOne}
	report, err := RunChaos(wl, ChaosOptions{Runs: 1, Seed: 26, Partitions: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad := report.Violations(); len(bad) != 0 {
		t.Fatalf("seed-26 audit found %d violation(s):\n%s", len(bad), bad)
	}
}
