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
