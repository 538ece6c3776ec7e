// The race detector's instrumentation allocates on its own, so the
// allocation budget is checked only in normal builds.

//go:build !race

package testbed_test

import (
	"runtime"
	"testing"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// TestAllocBudget bounds the heap bytes a seed-fixed closed MB8(12) run
// allocates per simulated hour, from testbed.New through Run: the
// allocation side of the kernel's work, which wall-clock gates cannot see.
// The simulation is deterministic, so the count barely moves between runs;
// the budget is the measured 4.91 MB/sim-h plus 10%. A journal that copies
// its records as it grows, with a slice of undo positions per transaction,
// allocated 9.8 MB/sim-h here.
func TestAllocBudget(t *testing.T) {
	const (
		warmup, dur = 120_000, 720_000 // ms, the paper-grid horizon
		budgetMB    = 5.4
	)
	cfg := workload.MB8(12).TestbedConfig(1, warmup, dur)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	runtime.ReadMemStats(&m1)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / (dur / 3.6e6)
	t.Logf("MB8(12): %.3f MB/sim-h allocated, budget %.3f", mb, budgetMB)
	if mb > budgetMB {
		t.Errorf("MB8(12) allocated %.3f MB per simulated hour, budget %.3f", mb, budgetMB)
	}
}
