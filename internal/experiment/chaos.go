package experiment

import (
	"fmt"

	"carat/internal/rng"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// ChaosOptions configures a randomized fault-injection audit: a sequence of
// simulator runs, each under a fault plan and resilience policy drawn from a
// seeded stream, each checked against the testbed's hard invariants
// (testbed.Auditor) and against a goodput floor relative to a fault-free
// baseline of the same workload.
type ChaosOptions struct {
	// Runs is the number of randomized runs (default 20).
	Runs int
	// Seed labels the whole audit: run r draws its fault plan, resilience
	// policy and simulation seed from the stream SeedStream(Seed, r), so
	// any single run can be reproduced in isolation (default 1).
	Seed uint64
	// Warmup and Duration bound each run in simulated ms (defaults 5_000
	// and 90_000).
	Warmup   float64
	Duration float64
	// MinGoodputFrac is the fraction of the fault-free baseline commit
	// rate every faulted run must retain; crossing it is reported as a
	// violation (default 0.05, i.e. the system must not collapse). Set
	// negative to disable the floor.
	MinGoodputFrac float64
	// Partitions, when true, additionally draws scheduled network
	// partitions (healing before the run ends) and failure-detector
	// timings into every run's plan, arming the split-brain checks: the
	// auditor's cross-site atomicity, replica-agreement, and post-heal
	// reconciliation invariants. Off by default so the historical audit
	// stream is unchanged.
	Partitions bool
	// Progress, when non-nil, is called after each completed run.
	Progress func(done, total int)
}

func (o *ChaosOptions) defaults() {
	if o.Runs <= 0 {
		o.Runs = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Warmup <= 0 {
		o.Warmup = 5_000
	}
	if o.Duration <= 0 {
		o.Duration = 90_000
	}
	if o.MinGoodputFrac == 0 {
		o.MinGoodputFrac = 0.05
	}
}

// ChaosRun is the record of one randomized run.
type ChaosRun struct {
	// Run is the 0-based run index; Seed is the simulation seed it ran with.
	Run  int
	Seed uint64
	// Plan and Resilience are the drawn configuration, kept so a failing
	// run can be replayed exactly.
	Plan       testbed.FaultPlan
	Resilience testbed.Resilience
	// GoodputTPS is the system-wide commit rate over the run's window.
	GoodputTPS float64
	// Violations lists every invariant the auditor (or the goodput floor)
	// found broken; empty means the run was clean.
	Violations []string
}

// ChaosReport is the outcome of a whole audit.
type ChaosReport struct {
	// BaselineTPS is the fault-free goodput of the workload at the audit's
	// base seed, the reference for the goodput floor.
	BaselineTPS float64
	Runs        []ChaosRun
}

// Violations flattens every run's violations, prefixed with the run index
// and seed so each is independently reproducible.
func (r *ChaosReport) Violations() []string {
	var out []string
	for _, run := range r.Runs {
		for _, v := range run.Violations {
			out = append(out, fmt.Sprintf("run %d (seed %#x): %s", run.Run, run.Seed, v))
		}
	}
	return out
}

// drawPlan samples a bounded fault plan: every mechanism active, rates held
// in ranges under which a correct system must stay live (detection channels
// heal, timeouts are finite, crashes are transient).
func drawPlan(r *rng.Rand) testbed.FaultPlan {
	p := testbed.FaultPlan{
		CrashMTTFMS:       30_000 + 60_000*r.Float64(),
		CrashMTTRMS:       2_000 + 4_000*r.Float64(),
		MsgLossProb:       0.2 * r.Float64(),
		MsgExtraDelayProb: 0.2 * r.Float64(),
		PrepareTimeoutMS:  2_000 + 8_000*r.Float64(),
		LockWaitTimeoutMS: 5_000 + 15_000*r.Float64(),
	}
	if r.Bool(0.5) {
		// Half the runs also degrade the deadlock-detection channel.
		p.ProbeLossProb = 0.5 * r.Float64()
	}
	return p
}

// drawPartitions augments a plan with one or two scheduled partitions —
// random two-sided splits, each healing well before the run ends so the
// post-heal reconciliation invariant is actually exercised — plus the
// failure-detector timings that arm suspicion-based shedding and failover
// refusal.
func drawPartitions(r *rng.Rand, p *testbed.FaultPlan, sites int, duration float64) {
	at := 0.1 * duration
	for i := 0; i < 2; i++ {
		at += r.Float64() * 0.15 * duration
		heal := 5_000 + r.Float64()*0.15*duration
		if at+heal > 0.75*duration {
			break
		}
		var a, b []testbed.NodeID
		for s := 0; s < sites; s++ {
			if r.Bool(0.5) {
				a = append(a, testbed.NodeID(s))
			} else {
				b = append(b, testbed.NodeID(s))
			}
		}
		if len(a) > 0 && len(b) > 0 {
			p.Partitions = append(p.Partitions, testbed.PartitionSchedule{
				Groups:      [][]testbed.NodeID{a, b},
				AtMS:        at,
				HealAfterMS: heal,
			})
		}
		at += heal
	}
	p.HeartbeatIntervalMS = 100 + 200*r.Float64()
	p.SuspectAfterMS = 500 + 1_000*r.Float64()
}

// drawResilience samples a resilience policy, including the degenerate
// corners (no retry budget, no admission gate) so the audit also covers the
// paper's retry-forever behavior under faults.
func drawResilience(r *rng.Rand, usersPerSite int) testbed.Resilience {
	var res testbed.Resilience
	if r.Bool(0.7) {
		res.Retry = testbed.RetryPolicy{
			MaxAttempts:   4 + r.Intn(7),
			BaseBackoffMS: 10 + 90*r.Float64(),
			JitterFrac:    0.5 * r.Float64(),
		}
	}
	if r.Bool(0.5) {
		res.Admission = testbed.AdmissionPolicy{
			MaxMPL: 1 + r.Intn(usersPerSite),
			Shed:   r.Bool(0.5),
		}
	}
	res.ProbeRetryMS = 200 + 800*r.Float64()
	return res
}

// RunChaos executes the audit over the given workload. Fault and resilience
// configuration on the workload itself is overridden per run; everything
// else (topology, transaction mix, service demands) is kept. The whole
// audit is deterministic in (workload, options): the fault-free baseline
// runs first, on the caller's goroutine, and the randomized runs then run on
// runGrid with GOMAXPROCS workers, bit-identical for any worker count. A
// run that wedges, measuring less than its configured window, fails the
// audit with an error, as it fails any sweep.
func RunChaos(wl workload.Workload, opts ChaosOptions) (*ChaosReport, error) {
	return runChaos(wl, opts, 0)
}

// runChaos is RunChaos with an explicit worker bound for the randomized
// runs (0 means GOMAXPROCS).
func runChaos(wl workload.Workload, opts ChaosOptions, workers int) (*ChaosReport, error) {
	opts.defaults()

	// Fault-free baseline for the goodput floor: the plain workload with
	// no faults and no resilience at the audit's base seed.
	base := wl
	base.Faults = nil
	base.Resilience = testbed.Resilience{}
	bres, err := simulate(base, opts.Seed, SimOptions{Warmup: opts.Warmup, Duration: opts.Duration}, "chaos baseline")
	if err != nil {
		return nil, err
	}
	report := &ChaosReport{BaselineTPS: goodput(bres), Runs: make([]ChaosRun, opts.Runs)}

	usersPerSite := len(wl.Users) / wl.NumNodes
	if usersPerSite < 1 {
		usersPerSite = 1
	}
	_, err = runGrid(opts.Runs, workers, opts.Progress, func(run int) (testbed.Results, error) {
		r := rng.New(rng.SeedStream(opts.Seed, uint64(run)))
		plan := drawPlan(r)
		if opts.Partitions {
			drawPartitions(r, &plan, wl.NumNodes, opts.Duration)
		}
		res := drawResilience(r, usersPerSite)
		seed := r.Uint64()

		cw := wl
		cw.Faults = &plan
		cw.Resilience = res
		cfg := cw.TestbedConfig(seed, opts.Warmup, opts.Duration)
		aud := testbed.NewAuditor()
		cfg.Trace = aud.Record
		sys, err := testbed.New(cfg)
		if err != nil {
			return testbed.Results{}, fmt.Errorf("experiment: chaos run %d: %w", run, err)
		}
		measured := sys.Run()
		if err := sys.CheckWindow(measured); err != nil {
			return testbed.Results{}, fmt.Errorf("experiment: chaos run %d: %w", run, err)
		}

		cr := ChaosRun{Run: run, Seed: seed, Plan: plan, Resilience: res, GoodputTPS: goodput(measured)}
		cr.Violations = aud.Audit(sys)
		if floor := opts.MinGoodputFrac * report.BaselineTPS; opts.MinGoodputFrac >= 0 && cr.GoodputTPS < floor {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"goodput: %.2f txn/s under faults, below %.0f%% of the %.2f txn/s fault-free baseline",
				cr.GoodputTPS, 100*opts.MinGoodputFrac, report.BaselineTPS))
		}
		report.Runs[run] = cr
		return measured, nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// goodput sums the system-wide commit rate in txn/s.
func goodput(res testbed.Results) float64 {
	var tps float64
	for _, n := range res.Nodes {
		tps += n.TotalTxnThroughput
	}
	return tps
}
