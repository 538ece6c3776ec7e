package testbed_test

import (
	"testing"

	"carat/internal/experiment"
	"carat/internal/placement"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// TestKernelWorkPins pins the kernel's dispatched-event count for a
// seed-fixed closed MB4(8) run and a 16-site open scale fleet. The count is
// the work side of every kernel speed claim: a scheduler or coroutine change
// that keeps it (and the equivalence pins) unchanged simulated exactly the
// same thing, so any wall-clock difference is the kernel's own.
func TestKernelWorkPins(t *testing.T) {
	cases := []struct {
		name   string
		wl     workload.Workload
		warmup float64
		dur    float64
		events int64
	}{
		{"MB4(8)", workload.MB4(8), 30_000, 330_000, 71339},
		{"scale-16", experiment.ScaleWorkload(placement.Locality, 16, 0.5, 0.5), 5_000, 60_000, 74174},
	}
	for _, c := range cases {
		sys, err := testbed.New(c.wl.TestbedConfig(1, c.warmup, c.dur))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		st := sys.KernelStats()
		t.Logf("%s: %+v", c.name, st)
		if st.Events != c.events {
			t.Errorf("%s: dispatched %d events, pinned %d", c.name, st.Events, c.events)
		}
		// Process coroutines are recycled, so no more exist than processes
		// were ever alive at once, however many the run spawned.
		if st.Coroutines > int64(st.PeakLive) {
			t.Errorf("%s: created %d coroutines for a peak of %d live processes", c.name, st.Coroutines, st.PeakLive)
		}
	}
}
