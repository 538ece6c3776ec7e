package experiment

import (
	"fmt"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// FailurePoint is one point of a failure sweep: the workload simulated under
// a crash process with the given mean time to failure.
type FailurePoint struct {
	// MTTFMS is the per-site mean time to failure at this point (0 is the
	// fault-free baseline).
	MTTFMS float64
	// Results is the full simulator measurement.
	Results testbed.Results
	// TxnPerSec is the system-wide commit rate (goodput) in txn/s.
	TxnPerSec float64
	// Availability is the mean per-site availability over the window.
	Availability float64
	// System-wide abort and recovery counts.
	Crashes          int64
	CrashAborts      int64
	TimeoutAborts    int64
	InDoubtCommitted int64
	InDoubtAborted   int64
}

// FailureSweep simulates the workload at fixed transaction size under an
// increasing crash rate: for each mean time to failure the plan's
// CrashMTTFMS is overridden and the simulator run with opts. An MTTF of 0
// disables the random crash process at that point — with an otherwise-zero
// plan, that point is the fault-free baseline the degraded points compare
// against. The plan's timeouts, message faults and explicit crashes apply at
// every point. Points run on runGrid with opts.Seed (common random numbers),
// bit-identical for any opts.Workers.
func FailureSweep(wl workload.Workload, mttfs []float64, plan testbed.FaultPlan, opts SimOptions) ([]FailurePoint, error) {
	results, err := runGrid(len(mttfs), opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		p := plan
		p.CrashMTTFMS = mttfs[i]
		wl := wl
		wl.Faults = &p
		return simulate(wl, opts.Seed, opts, fmt.Sprintf("failure sweep mttf=%v", mttfs[i]))
	})
	if err != nil {
		return nil, err
	}
	out := make([]FailurePoint, len(mttfs))
	for i, res := range results {
		fp := FailurePoint{MTTFMS: mttfs[i], Results: res}
		for _, n := range res.Nodes {
			fp.TxnPerSec += n.TotalTxnThroughput
			fp.Availability += n.Availability / float64(len(res.Nodes))
			fp.Crashes += n.Crashes
			fp.CrashAborts += n.CrashAborts
			fp.TimeoutAborts += n.TimeoutAborts
			fp.InDoubtCommitted += n.InDoubtCommitted
			fp.InDoubtAborted += n.InDoubtAborted
		}
		out[i] = fp
	}
	return out, nil
}
