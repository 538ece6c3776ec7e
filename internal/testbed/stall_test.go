package testbed_test

import (
	"testing"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// TestMB8n20RunsFullWindow is the regression test for the missed global
// deadlock that used to wedge hour-long paper runs: a transaction's new
// blocking episode reused the probe round of an earlier episode at another
// site, a forwarding site dropped it as already chased, the global cycle
// persisted, and the event queue drained with every user parked. MB8(20)
// seeds 1–5 all stalled within 40 simulated minutes; each must now measure
// its full 60-minute window.
func TestMB8n20RunsFullWindow(t *testing.T) {
	const warmup, duration = 2 * 60_000.0, 62 * 60_000.0
	for seed := uint64(1); seed <= 5; seed++ {
		sys, err := testbed.New(workload.MB8(20).TestbedConfig(seed, warmup, duration))
		if err != nil {
			t.Fatal(err)
		}
		if res := sys.Run(); res.Window != duration-warmup {
			t.Errorf("seed %d: window %.0f ms, want %.0f ms (the run wedged)", seed, res.Window, duration-warmup)
		}
	}
}

// TestPaperCellsRunFullWindow runs the paper's 20 workload cells — LB8,
// MB4, MB8 and UB6 at n = 4, 8, 12, 16 and 20 — for an hour after a
// two-minute warm-up (seed 1) and requires each to measure its full
// window. A lock-path change that leaves a transaction parked with no one
// to wake it drains the event queue early and fails here, instead of
// printing a short-window point that looks merely slow.
func TestPaperCellsRunFullWindow(t *testing.T) {
	const warmup, duration = 2 * 60_000.0, 62 * 60_000.0
	shapes := []struct {
		name string
		wl   func(int) workload.Workload
	}{
		{"LB8", workload.LB8}, {"MB4", workload.MB4}, {"MB8", workload.MB8}, {"UB6", workload.UB6},
	}
	for _, sh := range shapes {
		for _, n := range []int{4, 8, 12, 16, 20} {
			sys, err := testbed.New(sh.wl(n).TestbedConfig(1, warmup, duration))
			if err != nil {
				t.Fatal(err)
			}
			if res := sys.Run(); res.Window != duration-warmup {
				t.Errorf("%s(%d): window %.0f ms, want %.0f ms (the run wedged)", sh.name, n, res.Window, duration-warmup)
			}
		}
	}
}
