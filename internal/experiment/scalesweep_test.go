package experiment

import (
	"testing"

	"carat/internal/placement"
	"carat/internal/testbed"
)

func scaleSweepOpts() SimOptions {
	opts := DefaultSimOptions()
	opts.Warmup = 5_000
	opts.Duration = 60_000
	return opts
}

// TestScaleSweepDeterministicAcrossWorkerCounts pins that the scale sweep
// is a pure function of its grid and seed: a 16-site fleet swept over two
// locality levels produces bit-identical results whether the cells run on
// one worker or race across eight.
func TestScaleSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	requireSameAcrossWorkers(t, []int{1, 3, 8}, scaleSweepAt)
}

// scaleSweepAt runs the scale sweep's determinism grid on workers.
func scaleSweepAt(t *testing.T, workers int) any {
	o := scaleSweepOpts()
	o.Workers = workers
	res, err := ScaleSweep(placement.Locality, []int{4, 16}, []float64{0.9, 0.1}, []float64{0.5}, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScaleSweepRejectsEmptyGrid(t *testing.T) {
	if _, err := ScaleSweep(placement.Hash, nil, []float64{0.5}, []float64{0.5}, scaleSweepOpts()); err == nil {
		t.Fatal("empty site list accepted")
	}
	if _, err := ScaleSweep(placement.Hash, []int{4}, nil, []float64{0.5}, scaleSweepOpts()); err == nil {
		t.Fatal("empty locality list accepted")
	}
	if _, err := ScaleSweep(placement.Hash, []int{4}, []float64{0.5}, nil, scaleSweepOpts()); err == nil {
		t.Fatal("empty λ list accepted")
	}
	if _, err := ScaleSweep(placement.Strategy(99), []int{4}, []float64{0.5}, []float64{0.5}, scaleSweepOpts()); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

// TestScaleSweepSurfacesConfigErrors pins that a broken cell fails the
// whole sweep with the cell's identity in the error instead of returning
// a zeroed point.
func TestScaleSweepSurfacesConfigErrors(t *testing.T) {
	_, err := ScaleSweep(placement.Locality, []int{4}, []float64{1.5}, []float64{0.5}, scaleSweepOpts())
	if err == nil {
		t.Fatal("affinity 1.5 accepted")
	}
}

// TestScaleSweepEveryCellCommits sanity-checks the workload itself: every
// strategy sustains committed throughput at a moderate cell, and the wire
// metrics are live (messages flowed through the fabric).
func TestScaleSweepEveryCellCommits(t *testing.T) {
	for _, strat := range []placement.Strategy{placement.Hash, placement.Range, placement.Locality} {
		res, err := ScaleSweep(strat, []int{4}, []float64{0.5}, []float64{0.5}, scaleSweepOpts())
		if err != nil {
			t.Fatal(err)
		}
		pt := res.Points[0]
		if pt.CommittedTPS <= 0 {
			t.Fatalf("%v: no committed throughput: %+v", strat, pt)
		}
		if pt.WireUtil <= 0 {
			t.Fatalf("%v: fabric saw no traffic: %+v", strat, pt)
		}
		if pt.Bottleneck == "" {
			t.Fatalf("%v: no bottleneck named: %+v", strat, pt)
		}
	}
}

// TestScaleChaosAuditClean runs the standard randomized fault-injection
// audit over a 16-site placement-routed fleet on the shared fabric: twenty
// runs of bounded crash/loss plans and drawn resilience policies must
// leave every hard invariant intact — the scale-out path reuses the same
// commit machinery, so it must survive the same chaos the two-site
// configurations do.
func TestScaleChaosAuditClean(t *testing.T) {
	wl := ScaleWorkload(placement.Locality, 16, 0.5, 0.5)
	report, err := RunChaos(wl, chaosOpts(20))
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
		t.Fatalf("scale chaos audit found %d violation(s):\n%s", len(bad), bad)
	}
}

func BenchmarkScaleSweep(b *testing.B) {
	opts := scaleSweepOpts()
	opts.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := ScaleSweep(placement.Locality, []int{16}, []float64{0.5}, []float64{0.5}, opts); err != nil {
			b.Fatal(err)
		}
	}
	reportKernelWork(b, ScaleWorkload(placement.Locality, 16, 0.5, 0.5).TestbedConfig(opts.Seed, opts.Warmup, opts.Duration), true)
}

// reportKernelWork reports the kernel's work counts for one fixed-seed
// cell of the benchmark's sweep, from an untimed run after the timed loop:
// a fixed-seed cell does the same work every iteration. With perEvent set,
// the cell is all the timed loop ran, and its host time per dispatched
// event is reported too.
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
