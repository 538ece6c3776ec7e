package carat

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (one benchmark per artifact) and adds ablations for
// the design choices DESIGN.md calls out. Each iteration performs the full
// artifact regeneration — the model solve plus the simulation sweep — with
// a reduced simulation window so a -bench run stays responsive; the
// caratrepro command produces the publication-window versions.
//
// Per-artifact shape metrics are reported with b.ReportMetric so a bench
// run doubles as a quantitative regression check on the reproduction:
//
//	model-over-sim-pct   mean signed relative error of the model vs the
//	                     simulator over the artifact's cells (positive:
//	                     model optimistic, the paper's own bias)
//	knee-drop-ratio      throughput at n=20 over throughput at n=8 (< 1
//	                     demonstrates the paper's deadlock-driven decline)

import (
	"math"
	"testing"

	"carat/internal/core"
	"carat/internal/experiment"
	"carat/internal/mva"
	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// benchOpts keeps each benchmark iteration around a second: a 10-minute
// simulated window per sweep point.
func benchOpts() experiment.SimOptions {
	return experiment.SimOptions{Seed: 1, Warmup: 30_000, Duration: 630_000}
}

// paperSweep runs the workload once per point of the paper's n grid, on one
// worker, and returns the single-run comparisons.
func paperSweep(b *testing.B, mk func(int) workload.Workload) []*experiment.Comparison {
	opts := benchOpts()
	opts.Workers = 1
	rcs, err := experiment.SweepReplicated(mk, experiment.PaperNs(), opts)
	if err != nil {
		b.Fatal(err)
	}
	comps := make([]*experiment.Comparison, len(rcs))
	for i, rc := range rcs {
		comps[i] = rc.First()
	}
	return comps
}

// meanModelError returns the mean signed relative error (percent) of
// model vs simulation for a metric over nodes and sweep points.
func meanModelError(comps []*experiment.Comparison, metric experiment.Metric) float64 {
	var sum float64
	var n int
	for _, c := range comps {
		for node := 0; node < 2; node++ {
			mo, me := metric.Get(c, node)
			if me > 0 {
				sum += (mo - me) / me * 100
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// kneeDrop returns metric(n=20)/metric(n=8) on the simulation side at a
// node, quantifying the deadlock-induced throughput decline.
func kneeDrop(comps []*experiment.Comparison, metric experiment.Metric, node int) float64 {
	var at8, at20 float64
	for _, c := range comps {
		_, me := metric.Get(c, node)
		switch c.N {
		case 8:
			at8 = me
		case 20:
			at20 = me
		}
	}
	if at8 == 0 {
		return math.NaN()
	}
	return at20 / at8
}

// benchFigure runs one LB8/MB4 figure regeneration per iteration.
func benchFigure(b *testing.B, mk func(int) workload.Workload, metric experiment.Metric, node int) {
	b.Helper()
	var comps []*experiment.Comparison
	for i := 0; i < b.N; i++ {
		comps = paperSweep(b, mk)
	}
	b.ReportMetric(meanModelError(comps, metric), "model-over-sim-pct")
	b.ReportMetric(kneeDrop(comps, metric, node), "knee-drop-ratio")
}

// BenchmarkFigure5LB8RecordThroughput regenerates Figure 5: LB8 record
// throughput at Node B over n = 4..20.
func BenchmarkFigure5LB8RecordThroughput(b *testing.B) {
	benchFigure(b, workload.LB8, experiment.RecordThroughput, 1)
}

// BenchmarkFigure6LB8CPUUtilization regenerates Figure 6: LB8 CPU
// utilization at Node B.
func BenchmarkFigure6LB8CPUUtilization(b *testing.B) {
	benchFigure(b, workload.LB8, experiment.CPUUtilization, 1)
}

// BenchmarkFigure7LB8DiskIORate regenerates Figure 7: LB8 disk I/O rate at
// Node B.
func BenchmarkFigure7LB8DiskIORate(b *testing.B) {
	benchFigure(b, workload.LB8, experiment.DiskIORate, 1)
}

// BenchmarkFigure8MB4RecordThroughput regenerates Figure 8: MB4 record
// throughput (both nodes; knee reported for Node A).
func BenchmarkFigure8MB4RecordThroughput(b *testing.B) {
	benchFigure(b, workload.MB4, experiment.RecordThroughput, 0)
}

// BenchmarkFigure9MB4CPUUtilization regenerates Figure 9: MB4 CPU
// utilization.
func BenchmarkFigure9MB4CPUUtilization(b *testing.B) {
	benchFigure(b, workload.MB4, experiment.CPUUtilization, 0)
}

// BenchmarkFigure10MB4DiskIORate regenerates Figure 10: MB4 disk I/O rate.
func BenchmarkFigure10MB4DiskIORate(b *testing.B) {
	benchFigure(b, workload.MB4, experiment.DiskIORate, 0)
}

// BenchmarkTable3MB8 regenerates Table 3: the MB8 model-vs-measurement
// comparison of TR-XPUT, Total-CPU and Total-DIO per node.
func BenchmarkTable3MB8(b *testing.B) {
	var comps []*experiment.Comparison
	for i := 0; i < b.N; i++ {
		comps = paperSweep(b, workload.MB8)
	}
	b.ReportMetric(meanModelError(comps, experiment.TxnThroughput), "model-over-sim-pct")
	b.ReportMetric(kneeDrop(comps, experiment.TxnThroughput, 0), "knee-drop-ratio")
}

// BenchmarkTable4UB6 regenerates Table 4: the UB6 comparison.
func BenchmarkTable4UB6(b *testing.B) {
	var comps []*experiment.Comparison
	for i := 0; i < b.N; i++ {
		comps = paperSweep(b, workload.UB6)
	}
	b.ReportMetric(meanModelError(comps, experiment.TxnThroughput), "model-over-sim-pct")
	b.ReportMetric(kneeDrop(comps, experiment.TxnThroughput, 0), "knee-drop-ratio")
}

// BenchmarkTable5MB4PerType regenerates Table 5: MB4 per-transaction-type
// throughputs at each node, reporting the mean per-type model error.
func BenchmarkTable5MB4PerType(b *testing.B) {
	var tbl *experiment.Table
	var comps []*experiment.Comparison
	for i := 0; i < b.N; i++ {
		comps = paperSweep(b, workload.MB4)
		var err error
		tbl, err = experiment.Table5([]int{4}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
	b.ReportMetric(meanModelError(comps, experiment.TxnThroughput), "model-over-sim-pct")
}

// BenchmarkModelSolveMB8 isolates the analytical solver (no simulation):
// the cost of one full fixed-point solution — the quantity that makes the
// model useful for capacity planning.
func BenchmarkModelSolveMB8(b *testing.B) {
	wl := workload.MB8(12)
	for i := 0; i < b.N; i++ {
		m, err := wl.Model()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateMB8 is the simulator's single-run baseline at the
// benchmark window (10 simulated minutes of MB8): the number future perf
// PRs compare ns/op against.
func BenchmarkSimulateMB8(b *testing.B) {
	w, opts := WorkloadMB8(8), SimOptions{Seed: 1, WarmupMS: 30_000, DurationMS: 630_000}
	for i := 0; i < b.N; i++ {
		meas, err := Simulate(w, opts)
		if err != nil {
			b.Fatal(err)
		}
		if meas.Nodes[0].TxnPerSec <= 0 {
			b.Fatal("simulation stalled")
		}
	}
	e := opts.fill()
	reportKernelWork(b, w.w.TestbedConfig(e.Seed, e.Warmup, e.Duration), true)
}

// reportKernelWork reports the kernel's work counts for one fixed-seed
// testbed run — the benchmark's run, or one cell of its sweep — from an
// untimed run after the timed loop: a fixed-seed run does the same work
// every iteration. With perEvent set, the run is all the timed loop did,
// and its host time per dispatched event is reported too.
func reportKernelWork(b *testing.B, cfg testbed.Config, perEvent bool) {
	b.StopTimer()
	sys, err := testbed.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys.Run()
	st := sys.KernelStats()
	b.ReportMetric(float64(st.Events), "events/op")
	b.ReportMetric(float64(st.Resumes), "resumes/op")
	b.ReportMetric(float64(st.Coroutines), "coroutines/op")
	if perEvent {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Events), "ns/event")
	}
}

// BenchmarkReplicatedSweep runs the replication availability sweep — R=1
// baseline plus R=2 under both read policies, with one site crashed mid-
// window — and reports the availability gain replication buys over the
// unreplicated baseline.
func BenchmarkReplicatedSweep(b *testing.B) {
	plan := testbed.FaultPlan{
		Crashes: []testbed.SiteCrash{{Site: 1, AtMS: 60_000, DownForMS: 120_000}},
	}
	// One worker: the sweep's points run one after another, the same work
	// the recorded baselines measured.
	opts := benchOpts()
	opts.Workers = 1
	var pts []experiment.FaultPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiment.ReplicationSweep(workload.MB4(8), []int{1, 2},
			[]repl.ReadMode{repl.ReadOne, repl.ReadQuorum}, plan, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((pts[1].DegradedGoodputFrac-pts[0].DegradedGoodputFrac)*100, "avail-gain-pct")
	b.ReportMetric(float64(pts[1].FailoverReads), "failover-reads")
	// Work counts of the R=2 read-quorum cell.
	wl := workload.MB4(8)
	wl.Faults = &plan
	wl.Replication = repl.Policy{Factor: 2, Read: repl.ReadQuorum}
	reportKernelWork(b, wl.TestbedConfig(opts.Seed, opts.Warmup, opts.Duration), false)
}

// BenchmarkSimulateHourMB8 isolates the simulator: one simulated hour of
// the MB8 workload per iteration.
func BenchmarkSimulateHourMB8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		meas, err := Simulate(WorkloadMB8(12), SimOptions{Seed: uint64(i + 1), WarmupMS: 60_000, DurationMS: 3_660_000})
		if err != nil {
			b.Fatal(err)
		}
		if meas.Nodes[0].TxnPerSec <= 0 {
			b.Fatal("simulation stalled")
		}
	}
}

// BenchmarkAblationSeparateLogDisk measures the throughput gain from a
// dedicated log disk (the configuration the paper says practice demands),
// model side.
func BenchmarkAblationSeparateLogDisk(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		shared, err := SolveModel(WorkloadLB8(8))
		if err != nil {
			b.Fatal(err)
		}
		sep, err := SolveModel(WorkloadLB8(8).WithSeparateLogDisks())
		if err != nil {
			b.Fatal(err)
		}
		gain = (sep.Nodes[0].TxnPerSec/shared.Nodes[0].TxnPerSec - 1) * 100
	}
	b.ReportMetric(gain, "throughput-gain-pct")
}

// BenchmarkAblationBufferPool measures the model-predicted throughput gain
// from a 60% buffer hit ratio.
func BenchmarkAblationBufferPool(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := SolveModel(WorkloadLB8(8))
		if err != nil {
			b.Fatal(err)
		}
		buf, err := SolveModel(WorkloadLB8(8).WithBufferHitRatio(0.6))
		if err != nil {
			b.Fatal(err)
		}
		gain = (buf.Nodes[0].TxnPerSec/base.Nodes[0].TxnPerSec - 1) * 100
	}
	b.ReportMetric(gain, "throughput-gain-pct")
}

// BenchmarkAblationExactVsApproxMVA compares the exact MVA recursion with
// the Schweitzer–Bard approximation on the MB8 site networks, reporting
// the approximation's throughput error.
func BenchmarkAblationExactVsApproxMVA(b *testing.B) {
	wl := workload.MB8(8)
	var errPct float64
	for i := 0; i < b.N; i++ {
		exactM, _ := wl.Model()
		exact, err := core.Solve(exactM)
		if err != nil {
			b.Fatal(err)
		}
		approxM, _ := wl.Model()
		approxM.UseApproxMVA = true
		approx, err := core.Solve(approxM)
		if err != nil {
			b.Fatal(err)
		}
		errPct = math.Abs(approx.Sites[0].TotalTxnThroughput/exact.Sites[0].TotalTxnThroughput-1) * 100
	}
	b.ReportMetric(errPct, "approx-error-pct")
}

// BenchmarkMVAExactKernel measures the raw exact-MVA recursion on an
// MB8-sized site network (6 chains, populations of 2, 3 centers).
func BenchmarkMVAExactKernel(b *testing.B) {
	n := &mva.Network{
		Kinds: []mva.CenterKind{mva.Queueing, mva.Queueing, mva.Delay},
		Demands: [][]float64{
			{100, 150, 120, 170, 80, 110},
			{900, 2700, 450, 1350, 450, 1350},
			{0, 50, 400, 600, 800, 700},
		},
		Populations: []int{2, 2, 2, 2, 2, 2},
	}
	for i := 0; i < b.N; i++ {
		if _, err := mva.SolveExact(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDiskStripes sweeps the database over 1, 2 and 4 disk
// stripes (the paper's "multiple DISK queueing centers" option) and
// reports the model-predicted speedup of each step.
func BenchmarkAblationDiskStripes(b *testing.B) {
	var x1, x2, x4 float64
	for i := 0; i < b.N; i++ {
		solveStripes := func(k int) float64 {
			pred, err := SolveModel(WorkloadLB8(8).WithStripedDatabase(k))
			if err != nil {
				b.Fatal(err)
			}
			return pred.Nodes[0].TxnPerSec
		}
		x1, x2, x4 = solveStripes(1), solveStripes(2), solveStripes(4)
	}
	b.ReportMetric(x2/x1*100-100, "gain-2-stripes-pct")
	b.ReportMetric(x4/x1*100-100, "gain-4-stripes-pct")
}

// BenchmarkAblationTMSerialization measures the model's optional
// TM-serialization correction (Section 5.5, [JACO83]) at the transaction
// size where the paper reports its largest deviation: n=4.
func BenchmarkAblationTMSerialization(b *testing.B) {
	var dropPct float64
	for i := 0; i < b.N; i++ {
		wl := workload.MB8(4)
		off, _ := wl.Model()
		offRes, err := core.Solve(off)
		if err != nil {
			b.Fatal(err)
		}
		wl.ModelTMSerialization = true
		on, _ := wl.Model()
		onRes, err := core.Solve(on)
		if err != nil {
			b.Fatal(err)
		}
		dropPct = (1 - onRes.Sites[0].TotalTxnThroughput/offRes.Sites[0].TotalTxnThroughput) * 100
	}
	b.ReportMetric(dropPct, "throughput-drop-pct")
}

// BenchmarkBaselineConcurrencyControls runs the same contended workload
// under the paper's 2PL-with-detection and the three classical baselines
// (wait-die, wound-wait, basic timestamp ordering), reporting each
// protocol's throughput relative to 2PL. This is the comparison behind the
// 2PL-vs-TO controversy the paper's introduction recounts: which protocol
// "wins" depends on the workload — under this read-heavy mix basic TO
// starves its long writers.
func BenchmarkBaselineConcurrencyControls(b *testing.B) {
	opts := SimOptions{Seed: 3, WarmupMS: 30_000, DurationMS: 630_000}
	wl := WorkloadMB8(8)
	var base, wd, ww, to float64
	for i := 0; i < b.N; i++ {
		run := func(cc ConcurrencyControl) float64 {
			meas, err := Simulate(wl.WithConcurrencyControl(cc), opts)
			if err != nil {
				b.Fatal(err)
			}
			return meas.Nodes[0].TxnPerSec + meas.Nodes[1].TxnPerSec
		}
		base = run(TwoPhaseLocking)
		wd = run(WaitDie)
		ww = run(WoundWait)
		to = run(TimestampOrdering)
	}
	b.ReportMetric(wd/base*100, "wait-die-vs-2PL-pct")
	b.ReportMetric(ww/base*100, "wound-wait-vs-2PL-pct")
	b.ReportMetric(to/base*100, "basic-TO-vs-2PL-pct")
}

// BenchmarkAblationDeadlockVictimPolicies compares simulator throughput
// under the three victim-selection policies the lock manager offers. The
// paper (and the model's Pd) assume the requester dies; this quantifies
// how much that choice matters.
func BenchmarkAblationDeadlockVictimPolicies(b *testing.B) {
	// Victim policy is internal to the lock manager; at the public API the
	// requester policy is what the testbed uses, so this ablation runs the
	// simulator at high contention and reports the deadlock rate as the
	// sensitivity proxy.
	var perHour float64
	for i := 0; i < b.N; i++ {
		meas, err := Simulate(WorkloadMB8(16).WithDatabaseSize(600),
			SimOptions{Seed: 5, WarmupMS: 30_000, DurationMS: 630_000})
		if err != nil {
			b.Fatal(err)
		}
		var d int64
		for _, n := range meas.Nodes {
			d += n.Deadlocks
		}
		perHour = float64(d) * 6 // 10-minute window -> per hour
	}
	b.ReportMetric(perHour, "deadlocks-per-hour")
}

// BenchmarkCapacitySweep runs a small open-arrival capacity sweep — three
// offered rates around the MB4 bottleneck bound with an MPL-8 admission
// gate — and reports how close the measured capacity lands to the closed
// model's 1/D_max prediction.
func BenchmarkCapacitySweep(b *testing.B) {
	wl := workload.MB4(8)
	wl.Resilience = testbed.Resilience{Admission: testbed.AdmissionPolicy{MaxMPL: 8}}
	var cr *experiment.CapacityResult
	for i := 0; i < b.N; i++ {
		var err error
		cr, err = experiment.CapacitySweep(func() workload.Workload { return wl },
			[]float64{0.4, 0.8, 1.6}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cr.PeakCommittedTPS/cr.BottleneckBoundTPS*100, "peak-vs-bound-pct")
	b.ReportMetric(cr.KneeLambdaTPS, "knee-tps")
	// Work counts of an open run at the middle rate. The sweep's own cells
	// offer the closed model's class mix and site split, which only the
	// sweep computes; this run offers every kind evenly over both sites.
	wl.Open = &testbed.OpenConfig{RatePerSec: 0.8}
	wl.Users = nil
	opts := benchOpts()
	reportKernelWork(b, wl.TestbedConfig(opts.Seed, opts.Warmup, opts.Duration), false)
}
