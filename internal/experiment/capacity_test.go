package experiment

import (
	"sync"
	"testing"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// capacityWorkload is the sweep-under-test: MB8 with a per-site admission
// cap of 8 (the closed experiments' MPL, and provably safe against the
// cross-site DM-pool interlock on two nodes).
func capacityWorkload() workload.Workload {
	wl := workload.MB8(4)
	wl.Resilience = testbed.Resilience{Admission: testbed.AdmissionPolicy{MaxMPL: 8}}
	return wl
}

// The saturation sweep is shared by the knee/bound and no-collapse tests;
// long windows (one simulated hour per point) keep the transient
// mix-enrichment bias of the FIFO admission queue out of the plateau.
var (
	capOnce   sync.Once
	capResult *CapacityResult
	capErr    error
)

func capacitySweep(t *testing.T) *CapacityResult {
	t.Helper()
	capOnce.Do(func() {
		bound, _, _, err := closedBoundAndMix(capacityWorkload())
		if err != nil {
			capErr = err
			return
		}
		grid := []float64{0.5 * bound, 0.8 * bound, bound, 1.4 * bound, 2 * bound}
		capResult, capErr = CapacitySweep(capacityWorkload, grid, SimOptions{
			Seed: 1, Warmup: 30_000, Duration: 3_630_000,
		})
	})
	if capErr != nil {
		t.Fatal(capErr)
	}
	return capResult
}

// TestCapacitySweepMB8KneeMatchesBound is the sweep's headline validation:
// the measured committed throughput plateaus within 15% of the closed
// model's MVA bottleneck bound 1/D_max (Section 4), and the saturation knee
// sits at that capacity.
func TestCapacitySweepMB8KneeMatchesBound(t *testing.T) {
	cr := capacitySweep(t)
	bound := cr.BottleneckBoundTPS
	if bound <= 0 {
		t.Fatalf("no bottleneck bound computed for a modelable workload")
	}
	if cr.PeakCommittedTPS < 0.85*bound || cr.PeakCommittedTPS > 1.05*bound {
		t.Errorf("peak committed %.3f txn/s not within 15%% of bound %.3f",
			cr.PeakCommittedTPS, bound)
	}
	// The plateau, not just the peak: every overloaded point holds the level.
	for _, p := range cr.Points {
		if p.LambdaTPS >= bound && p.CommittedTPS < 0.85*bound {
			t.Errorf("λ=%.3f: committed %.3f dropped below 85%% of bound %.3f",
				p.LambdaTPS, p.CommittedTPS, bound)
		}
	}
	if cr.KneeLambdaTPS < 0.8*bound || cr.KneeLambdaTPS > 1.4*bound {
		t.Errorf("knee λ=%.3f far from bound %.3f", cr.KneeLambdaTPS, bound)
	}
	// Below the knee the system is open and unsaturated: it commits what is
	// offered, and response times are far below the overloaded points'.
	first, last := cr.Points[0], cr.Points[len(cr.Points)-1]
	if first.CommittedTPS < 0.9*first.OfferedTPS {
		t.Errorf("light load: committed %.3f below offered %.3f", first.CommittedTPS, first.OfferedTPS)
	}
	if first.MeanResponseMS <= 0 || first.MeanResponseMS > last.MeanResponseMS {
		t.Errorf("response did not grow toward saturation: %.0f ms vs %.0f ms",
			first.MeanResponseMS, last.MeanResponseMS)
	}
}

// TestOpenAdmissionNoCollapse pins the admission-control payoff: at twice
// the knee rate the gate keeps goodput within 20% of the measured peak
// instead of letting the overload collapse the system.
func TestOpenAdmissionNoCollapse(t *testing.T) {
	cr := capacitySweep(t)
	target := 2 * cr.KneeLambdaTPS
	over := cr.Points[len(cr.Points)-1]
	for _, p := range cr.Points {
		if p.LambdaTPS >= target {
			over = p
			break
		}
	}
	if over.LambdaTPS < target {
		t.Fatalf("grid has no point at 2× knee λ=%.3f", target)
	}
	if over.CommittedTPS < 0.8*cr.PeakCommittedTPS {
		t.Errorf("goodput %.3f at λ=%.3f collapsed below 80%% of peak %.3f",
			over.CommittedTPS, over.LambdaTPS, cr.PeakCommittedTPS)
	}
}

// capacitySweepAt runs the capacity sweep's determinism grid on workers.
func capacitySweepAt(t *testing.T, workers int) any {
	cr, err := CapacitySweep(capacityWorkload, []float64{0.8, 1.6}, SimOptions{
		Seed: 7, Warmup: 5_000, Duration: 65_000, Replications: 2, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestCapacitySweepDeterministicAcrossWorkerCounts mirrors the replicated
// sweep's determinism guarantee: the capacity sweep's (seed, grid) fully
// determines its output, also on worker counts that do not divide the
// grid evenly (its row in TestSweepsDeterministicAcrossWorkerCounts
// covers 4 workers).
func TestCapacitySweepDeterministicAcrossWorkerCounts(t *testing.T) {
	requireSameAcrossWorkers(t, []int{1, 3, 8}, capacitySweepAt)
}

// TestCapacitySweepNeedsRates pins the argument contract.
func TestCapacitySweepNeedsRates(t *testing.T) {
	if _, err := CapacitySweep(capacityWorkload, nil, SimOptions{}); err == nil {
		t.Fatal("expected an error for an empty λ grid")
	}
}

// TestOpenChaosAuditClean runs the randomized fault audit over a mixed
// workload with open arrivals attached: the invariant checks (atomicity,
// conservation, durable-commit survival) must stay clean when submissions
// come from an unbounded arrival stream instead of closed terminals only.
func TestOpenChaosAuditClean(t *testing.T) {
	wl := workload.MB4(8)
	wl.Open = &testbed.OpenConfig{RatePerSec: 0.5}
	report, err := RunChaos(wl, chaosOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if report.BaselineTPS <= 0 {
		t.Fatalf("fault-free baseline goodput = %v txn/s, want > 0", report.BaselineTPS)
	}
	if bad := report.Violations(); len(bad) != 0 {
		t.Fatalf("open-mode chaos audit found %d violation(s):\n%s", len(bad), bad)
	}
}
