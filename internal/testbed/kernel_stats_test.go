package testbed_test

import (
	"testing"

	"carat/internal/experiment"
	"carat/internal/placement"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// TestKernelWorkPins pins the kernel's work counts for a seed-fixed closed
// MB4(8) run and a 16-site open scale fleet. The dispatched-event and
// fused-hold counts are the work side of every kernel speed claim: a
// scheduler or coroutine change that keeps them (and the equivalence pins)
// unchanged simulated exactly the same thing, so any wall-clock difference
// is the kernel's own. The resume count is the coroutine switches that work
// cost; a change that lowers it must say which switches it removed (visit
// chains removed the resume after every DM, LR, DMIO and granule-I/O visit
// of a request that did not complete in place; granting accesses inside the
// chain removed the resume at every access granted at once with no
// victims; running the request's whole message path as the chain removed
// the resumes after its U burst, after every TM step's grant and CPU
// burst, and after every hop on the request path). The served count is
// the resource waits: queued grants the kernel served.
func TestKernelWorkPins(t *testing.T) {
	cases := []struct {
		name    string
		wl      workload.Workload
		warmup  float64
		dur     float64
		events  int64
		fused   int64
		resumes int64
		served  int64
	}{
		{"MB4(8)", workload.MB4(8), 30_000, 330_000, 71339, 25122, 6142, 28226},
		{"scale-16", experiment.ScaleWorkload(placement.Locality, 16, 0.5, 0.5), 5_000, 60_000, 74174, 4233, 17070, 15171},
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
		if st.FusedHolds != c.fused {
			t.Errorf("%s: fused %d holds, pinned %d", c.name, st.FusedHolds, c.fused)
		}
		if st.Resumes != c.resumes {
			t.Errorf("%s: resumed processes %d times, pinned %d", c.name, st.Resumes, c.resumes)
		}
		if st.Served != c.served {
			t.Errorf("%s: served %d resource waits, pinned %d", c.name, st.Served, c.served)
		}
		// Process coroutines are recycled, so no more exist than processes
		// were ever alive at once, however many the run spawned.
		if st.Coroutines > int64(st.PeakLive) {
			t.Errorf("%s: created %d coroutines for a peak of %d live processes", c.name, st.Coroutines, st.PeakLive)
		}
	}
}
