package experiment

import (
	"reflect"
	"testing"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// faultyMB4 is MB4 with an aggressive fault plan attached: frequent short
// crashes plus lock and prepare timeouts.
func faultyMB4(n int) workload.Workload {
	wl := workload.MB4(n)
	wl.Faults = &testbed.FaultPlan{
		CrashMTTFMS:       30_000,
		CrashMTTRMS:       2_000,
		PrepareTimeoutMS:  4_000,
		LockWaitTimeoutMS: 8_000,
	}
	return wl
}

// TestFailureSweepSmoke runs a short throughput-vs-crash-rate sweep and
// checks the availability accounting: the fault-free baseline must be fully
// available, and higher crash rates must actually crash sites and degrade
// availability.
func TestFailureSweepSmoke(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 180_000
	plan := testbed.FaultPlan{CrashMTTRMS: 2_000, LockWaitTimeoutMS: 8_000}
	pts, err := FailureSweep(workload.MB4(8), []float64{0, 60_000, 20_000}, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	base := pts[0]
	if base.MTTFMS != 0 || base.Crashes != 0 || base.Uptime != 1 {
		t.Fatalf("baseline point must be fault-free with full uptime, got %+v", base)
	}
	if base.TxnPerSec <= 0 {
		t.Fatalf("baseline goodput = %v, want > 0", base.TxnPerSec)
	}
	for _, p := range pts[1:] {
		if p.Crashes == 0 {
			t.Fatalf("mttf=%v: no crashes in the window", p.MTTFMS)
		}
		if p.Uptime >= 1 || p.Uptime <= 0 {
			t.Fatalf("mttf=%v: uptime = %v, want in (0, 1)", p.MTTFMS, p.Uptime)
		}
		if p.TxnPerSec <= 0 || p.TxnPerSec >= base.TxnPerSec {
			t.Fatalf("mttf=%v: goodput %v, want positive and below the baseline %v",
				p.MTTFMS, p.TxnPerSec, base.TxnPerSec)
		}
	}
}

// TestFailureSweepDeterministic pins that the sweep itself is reproducible:
// the same workload, grid and plan give bit-identical points.
func TestFailureSweepDeterministic(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 120_000
	plan := testbed.FaultPlan{CrashMTTRMS: 2_000, LockWaitTimeoutMS: 8_000}
	run := func() []FaultPoint {
		pts, err := FailureSweep(workload.MB4(8), []float64{0, 30_000}, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical failure sweeps diverge")
	}
}
