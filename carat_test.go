package carat

import (
	"strings"
	"testing"
)

// quick keeps unit-test simulations short but long enough for stable rates.
var quick = SimOptions{Seed: 1, WarmupMS: 30_000, DurationMS: 630_000}

func TestSolveModelMB4(t *testing.T) {
	pred, err := SolveModel(WorkloadMB4(8))
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Converged {
		t.Fatal("model did not converge")
	}
	if len(pred.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(pred.Nodes))
	}
	for i, n := range pred.Nodes {
		if n.TxnPerSec <= 0 || n.RecordsPerSec <= 0 || n.CPUUtilization <= 0 || n.DiskIOPerSec <= 0 {
			t.Fatalf("node %d metrics: %+v", i, n)
		}
		for _, ty := range []TxnType{LocalReadOnly, LocalUpdate, DistributedRead, DistributedUpdate} {
			if n.TxnPerSecByType[ty] <= 0 {
				t.Fatalf("node %d missing %v throughput", i, ty)
			}
			if n.MeanResponseMS[ty] <= 0 {
				t.Fatalf("node %d missing %v response time", i, ty)
			}
		}
	}
}

func TestSimulateLB8(t *testing.T) {
	meas, err := Simulate(WorkloadLB8(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	if meas.WindowMS != 600_000 {
		t.Fatalf("window = %v", meas.WindowMS)
	}
	for i, n := range meas.Nodes {
		if n.TxnPerSec <= 0 {
			t.Fatalf("node %d idle", i)
		}
		if _, ok := n.TxnPerSecByType[DistributedUpdate]; ok {
			t.Fatal("LB8 must not run DU")
		}
	}
}

func TestCompareAgreesRoughly(t *testing.T) {
	c, err := Compare(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload != "MB4" || c.N != 8 {
		t.Fatalf("identity: %s/%d", c.Workload, c.N)
	}
	for i := range c.Predicted.Nodes {
		mo := c.Predicted.Nodes[i].TxnPerSec
		me := c.Measured.Nodes[i].TxnPerSec
		if mo <= 0 || me <= 0 {
			t.Fatalf("node %d: model %v sim %v", i, mo, me)
		}
		rel := (mo - me) / me
		if rel < -0.5 || rel > 0.8 {
			t.Fatalf("node %d: model %v vs sim %v diverge", i, mo, me)
		}
	}
}

func TestDeterministicSimulation(t *testing.T) {
	a, err := Simulate(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i].TxnPerSec != b.Nodes[i].TxnPerSec {
			t.Fatal("same seed must reproduce results exactly")
		}
	}
	c, err := Simulate(WorkloadMB4(8), SimOptions{Seed: 2, WarmupMS: quick.WarmupMS, DurationMS: quick.DurationMS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[0].TxnPerSec == c.Nodes[0].TxnPerSec {
		t.Log("different seeds coincided exactly — suspicious but not impossible")
	}
}

func TestWorkloadOptions(t *testing.T) {
	w := WorkloadLB8(8)
	if w.Name() != "LB8" || w.TransactionSize() != 8 {
		t.Fatal("identity accessors wrong")
	}
	if w2 := w.WithTransactionSize(12); w2.TransactionSize() != 12 || w.TransactionSize() != 8 {
		t.Fatal("WithTransactionSize must copy")
	}

	// Separate log disks must beat the paper's shared-disk compromise.
	shared, err := SolveModel(w)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := SolveModel(w.WithSeparateLogDisks())
	if err != nil {
		t.Fatal(err)
	}
	if sep.Nodes[0].TxnPerSec <= shared.Nodes[0].TxnPerSec {
		t.Fatal("separate log disks should increase model throughput")
	}

	// Buffer hits help both model and simulation.
	buf, err := SolveModel(w.WithBufferHitRatio(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Nodes[0].TxnPerSec <= shared.Nodes[0].TxnPerSec {
		t.Fatal("buffer pool should increase model throughput")
	}

	// Think time reduces utilization.
	think, err := SolveModel(w.WithThinkTime(2000))
	if err != nil {
		t.Fatal(err)
	}
	if think.Nodes[0].CPUUtilization >= shared.Nodes[0].CPUUtilization {
		t.Fatal("think time should reduce utilization")
	}
}

func TestHotspotRaisesContention(t *testing.T) {
	base, err := Simulate(WorkloadLB8(16), quick)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Simulate(WorkloadLB8(16).WithHotspot(0.01, 0.9), quick)
	if err != nil {
		t.Fatal(err)
	}
	var baseDl, hotDl int64
	for i := range base.Nodes {
		baseDl += base.Nodes[i].Deadlocks
		hotDl += hot.Nodes[i].Deadlocks
	}
	if hotDl <= baseDl {
		t.Fatalf("hotspot should raise deadlocks: %d vs %d", hotDl, baseDl)
	}
}

func TestSmallDatabaseRaisesAborts(t *testing.T) {
	big, err := SolveModel(WorkloadMB4(12))
	if err != nil {
		t.Fatal(err)
	}
	small, err := SolveModel(WorkloadMB4(12).WithDatabaseSize(300))
	if err != nil {
		t.Fatal(err)
	}
	if small.AbortProbability[0][LocalUpdate] <= big.AbortProbability[0][LocalUpdate] {
		t.Fatal("smaller database should raise the abort probability")
	}
}

func TestNewWorkloadCustomMix(t *testing.T) {
	users := []User{
		{Type: LocalUpdate, Home: 0},
		{Type: LocalUpdate, Home: 0},
		{Type: DistributedUpdate, Home: 0, Remote: 1},
		{Type: DistributedUpdate, Home: 1, Remote: 0},
	}
	w, err := NewWorkload("custom", 2, users, 8)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := SolveModel(w)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Nodes[0].TxnPerSecByType[LocalUpdate] <= 0 {
		t.Fatal("custom mix missing LU throughput")
	}
	if _, err := NewWorkload("bad", 0, users, 8); err == nil {
		t.Fatal("zero nodes must fail")
	}
	if _, err := NewWorkload("bad", 2, []User{{Type: "???", Home: 0}}, 8); err == nil {
		t.Fatal("unknown type must fail")
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"LB8", "MB4", "MB8", "UB6"} {
		w, err := WorkloadByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name {
			t.Fatalf("name = %s", w.Name())
		}
	}
	if _, err := WorkloadByName("XX", 8); err == nil {
		t.Fatal("unknown name must fail")
	}
}

func TestResponsePercentiles(t *testing.T) {
	meas, err := Simulate(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []TxnType{LocalReadOnly, LocalUpdate, DistributedRead, DistributedUpdate} {
		mean := meas.Nodes[0].MeanResponseMS[ty]
		p95 := meas.Nodes[0].P95ResponseMS[ty]
		if p95 < mean {
			t.Fatalf("%v: p95 (%v) below mean (%v)", ty, p95, mean)
		}
		if p95 > 20*mean {
			t.Fatalf("%v: p95 (%v) implausibly above mean (%v)", ty, p95, mean)
		}
	}
}

func TestMultiCPUNodes(t *testing.T) {
	// With the shared disk the CPU is not the bottleneck, so a second
	// processor helps little; combine with a buffer pool (CPU-bound
	// regime) and the second CPU pays. Model and simulator must agree on
	// both calls.
	base := WorkloadLB8(8).WithBufferHitRatio(0.9).WithSeparateLogDisks()
	dual := base.WithCPUs(2)

	bp, err := SolveModel(base)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := SolveModel(dual)
	if err != nil {
		t.Fatal(err)
	}
	modelGain := dp.Nodes[0].TxnPerSec / bp.Nodes[0].TxnPerSec
	if modelGain <= 1.1 {
		t.Fatalf("model: second CPU should pay in a CPU-bound regime (gain %v)", modelGain)
	}

	bm, err := Simulate(base, quick)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Simulate(dual, quick)
	if err != nil {
		t.Fatal(err)
	}
	simGain := dm.Nodes[0].TxnPerSec / bm.Nodes[0].TxnPerSec
	if simGain <= 1.1 {
		t.Fatalf("sim: second CPU should pay in a CPU-bound regime (gain %v)", simGain)
	}
	if simGain/modelGain > 1.35 || modelGain/simGain > 1.35 {
		t.Fatalf("model gain %v vs sim gain %v diverge", modelGain, simGain)
	}
}

func TestDetailedDisksKeepModelAccuracy(t *testing.T) {
	// The positional disk model has the same mean block time, so the
	// analytical model (which only sees means) should keep tracking the
	// simulator within a modest band — the BCMP robustness check.
	wl := WorkloadLB8(8).WithDetailedDisks()
	pred, err := SolveModel(wl)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Simulate(wl, quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred.Nodes {
		mo, me := pred.Nodes[i].TxnPerSec, meas.Nodes[i].TxnPerSec
		if me <= 0 {
			t.Fatalf("node %d: detailed-disk sim stalled", i)
		}
		rel := (mo - me) / me
		if rel < -0.35 || rel > 0.6 {
			t.Fatalf("node %d: model %v vs detailed-disk sim %v (rel %+.0f%%)", i, mo, me, rel*100)
		}
	}
	// Detailed runs stay reproducible.
	again, err := Simulate(wl, quick)
	if err != nil {
		t.Fatal(err)
	}
	if again.Nodes[0].TxnPerSec != meas.Nodes[0].TxnPerSec {
		t.Fatal("detailed-disk simulation not reproducible with equal seeds")
	}
}

func TestEthernetModelNegligibleAtPaperScale(t *testing.T) {
	// The paper's justification for dropping α: at two-node message rates
	// the Ethernet adds fractions of a millisecond. Enabling the network
	// model must therefore barely move either side.
	base, err := Compare(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	eth, err := Compare(WorkloadMB4(8).WithEthernet(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Predicted.Nodes {
		bm := base.Predicted.Nodes[i].TxnPerSec
		em := eth.Predicted.Nodes[i].TxnPerSec
		if em > bm || em < bm*0.98 {
			t.Fatalf("node %d: Ethernet model moved model throughput %v -> %v", i, bm, em)
		}
		bs := base.Measured.Nodes[i].TxnPerSec
		es := eth.Measured.Nodes[i].TxnPerSec
		if es < bs*0.95 || es > bs*1.05 {
			t.Fatalf("node %d: Ethernet model moved sim throughput %v -> %v", i, bs, es)
		}
	}
}

func TestStripedDatabase(t *testing.T) {
	// Two stripes roughly halve the per-disk load: throughput rises in
	// both model and simulation, and the two keep agreeing.
	base := WorkloadLB8(8)
	striped := base.WithStripedDatabase(2)

	basePred, err := SolveModel(base)
	if err != nil {
		t.Fatal(err)
	}
	stripedPred, err := SolveModel(striped)
	if err != nil {
		t.Fatal(err)
	}
	if stripedPred.Nodes[0].TxnPerSec <= basePred.Nodes[0].TxnPerSec {
		t.Fatalf("model: stripes should help (%v vs %v)",
			stripedPred.Nodes[0].TxnPerSec, basePred.Nodes[0].TxnPerSec)
	}

	baseMeas, err := Simulate(base, quick)
	if err != nil {
		t.Fatal(err)
	}
	stripedMeas, err := Simulate(striped, quick)
	if err != nil {
		t.Fatal(err)
	}
	if stripedMeas.Nodes[0].TxnPerSec <= baseMeas.Nodes[0].TxnPerSec {
		t.Fatalf("sim: stripes should help (%v vs %v)",
			stripedMeas.Nodes[0].TxnPerSec, baseMeas.Nodes[0].TxnPerSec)
	}
	rel := (stripedPred.Nodes[0].TxnPerSec - stripedMeas.Nodes[0].TxnPerSec) / stripedMeas.Nodes[0].TxnPerSec
	if rel < -0.4 || rel > 0.6 {
		t.Fatalf("striped model diverges from sim: %v vs %v",
			stripedPred.Nodes[0].TxnPerSec, stripedMeas.Nodes[0].TxnPerSec)
	}
}

func TestThroughputConfidenceIntervals(t *testing.T) {
	meas, err := Simulate(WorkloadLB8(8), SimOptions{Seed: 1, WarmupMS: 60_000, DurationMS: 2_060_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []TxnType{LocalReadOnly, LocalUpdate} {
		x := meas.Nodes[0].TxnPerSecByType[ty]
		ci := meas.Nodes[0].TxnPerSecCI[ty]
		if ci <= 0 {
			t.Fatalf("%v: CI = %v, want positive", ty, ci)
		}
		// With 20 batch windows over ~33 minutes the interval should be
		// a modest fraction of the estimate.
		if ci > 0.5*x {
			t.Fatalf("%v: CI %v too wide for estimate %v", ty, ci, x)
		}
	}
}

func TestCalibrationAPI(t *testing.T) {
	cal, err := CalibrateDeadlockFactor("MB8", []int{16}, quick)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Factor <= 0 {
		t.Fatalf("factor = %v", cal.Factor)
	}
	if cal.FittedError > cal.BaselineError {
		t.Fatalf("fit worse than baseline: %v > %v", cal.FittedError, cal.BaselineError)
	}
	// The fitted factor must feed back into the model.
	if _, err := SolveModel(WorkloadMB8(16).WithDeadlockAdjust(cal.Factor)); err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateDeadlockFactor("NOPE", []int{8}, quick); err == nil {
		t.Fatal("unknown workload must fail")
	}
}

func TestConcurrencyControlSelection(t *testing.T) {
	wl := WorkloadMB4(8)
	for _, cc := range []ConcurrencyControl{WaitDie, WoundWait, TimestampOrdering} {
		w := wl.WithConcurrencyControl(cc)
		meas, err := Simulate(w, quick)
		if err != nil {
			t.Fatalf("%v: %v", cc, err)
		}
		if meas.Nodes[0].TxnPerSec <= 0 {
			t.Fatalf("%v: no throughput", cc)
		}
		// The analytical model only covers the paper's protocol.
		if _, err := SolveModel(w); err == nil {
			t.Fatalf("%v: SolveModel should refuse non-2PL protocols", cc)
		}
	}
	// Selecting 2PL (or anything unknown) keeps the model available.
	if _, err := SolveModel(wl.WithConcurrencyControl(TwoPhaseLocking)); err != nil {
		t.Fatal(err)
	}
}

func TestReproduceFigureAndTableErrors(t *testing.T) {
	if _, err := ReproduceFigure(4, quick); err == nil {
		t.Fatal("figure 4 does not exist")
	}
	if _, err := ReproduceTable(6, quick); err == nil {
		t.Fatal("table 6 does not exist")
	}
}

func TestReproduceStaticTables(t *testing.T) {
	t1, err := ReproduceTable(1, quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t1, "DMIO") {
		t.Fatal("table 1 rendering broken")
	}
	t2, err := ReproduceTable(2, quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "7.8") {
		t.Fatal("table 2 rendering broken")
	}
}

// TestThinkTimeInteractiveLaw exercises the dormant R_UT > 0 closed-mode
// path (the paper always runs Z = 0): adding think time must lower
// throughput, and the measured rates must obey the interactive
// response-time law X = N/(R+Z) chain by chain — MB4 homes one user per
// type per node, so each chain's commit rate is 1/(R+Z).
func TestThinkTimeInteractiveLaw(t *testing.T) {
	const z = 2000.0
	base, err := Simulate(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	thought, err := Simulate(WorkloadMB4(8).WithThinkTime(z), quick)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(m *Measurement) float64 {
		var x float64
		for _, n := range m.Nodes {
			x += n.TxnPerSec
		}
		return x
	}
	x0, xz := sum(base), sum(thought)
	if xz >= x0 {
		t.Fatalf("think time did not lower throughput: %.3f -> %.3f txn/s", x0, xz)
	}
	for i, n := range thought.Nodes {
		for ty, x := range n.TxnPerSecByType {
			r := n.MeanResponseMS[ty]
			law := 1000 / (r + z) // one user per (node, type) in MB4
			if rel := (x - law) / law; rel < -0.2 || rel > 0.2 {
				t.Errorf("node %d %s: X=%.4f/s violates N/(R+Z)=%.4f/s (R=%.0f ms)", i, ty, x, law, r)
			}
		}
	}
	// The analytical model covers Z > 0 through Eq. 10: it must track the
	// simulator about as well as it does at Z = 0.
	pred, err := SolveModel(WorkloadMB4(8).WithThinkTime(z))
	if err != nil {
		t.Fatal(err)
	}
	var xm float64
	for _, n := range pred.Nodes {
		xm += n.TxnPerSec
	}
	if rel := (xm - xz) / xz; rel < -0.15 || rel > 0.15 {
		t.Errorf("model X=%.3f vs simulated X=%.3f under think time (%.1f%% off)", xm, xz, 100*rel)
	}
}

// TestWithThinkTimeDoesNotMutateReceiver pins the copy-on-write contract:
// deriving a think-time variant must leave the original workload's cost
// tables untouched (the method used to rebuild defaults, which would also
// discard any non-default costs).
func TestWithThinkTimeDoesNotMutateReceiver(t *testing.T) {
	w := WorkloadMB4(8)
	a, err := Simulate(w, quick)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.WithThinkTime(5000)
	b, err := Simulate(w, quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i].TxnPerSec != b.Nodes[i].TxnPerSec {
			t.Fatalf("node %d: WithThinkTime mutated its receiver: %.4f vs %.4f",
				i, a.Nodes[i].TxnPerSec, b.Nodes[i].TxnPerSec)
		}
	}
}

func TestParseOpenClasses(t *testing.T) {
	mix, err := ParseOpenClasses("kind=LRO,weight=3;kind=DU,weight=1,n=4,rf=0.25,pattern=zipf,theta=0.8;kind=LU,hot=0.1,frac=0.9,pattern=hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 {
		t.Fatalf("classes = %d, want 3", len(mix))
	}
	if mix[0].Type != LocalReadOnly || mix[0].Weight != 3 || mix[0].Pattern != nil {
		t.Fatalf("first class: %+v", mix[0])
	}
	if mix[1].Type != DistributedUpdate || mix[1].Requests != 4 || mix[1].RemoteFrac != 0.25 || mix[1].Pattern == nil {
		t.Fatalf("second class: %+v", mix[1])
	}
	for _, bad := range []string{
		"", "weight=2", "kind=XYZ", "kind=LU,weight", "kind=LU,n=x",
		"kind=LU,bogus=1", "kind=LU,pattern=spiral",
		"kind=LU,theta=7", "kind=LU,hot=0.1", "kind=LU,pattern=zipf,frac=0.5", "kind=LU,theta=2,pattern=hotspot",
	} {
		if _, err := ParseOpenClasses(bad); err == nil {
			t.Errorf("ParseOpenClasses(%q) accepted", bad)
		}
	}
}

// TestOpenArrivalsSimulate smoke-tests open mode through the facade: the
// Open* metrics populate, closed terminals can be removed, and an unknown
// class type is reported when the simulation is built.
func TestOpenArrivalsSimulate(t *testing.T) {
	w := WorkloadMB4(8).
		WithOpenArrivals(OpenArrivals{LambdaPerSec: 0.5}).
		WithoutClosedUsers()
	meas, err := Simulate(w, quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range meas.Nodes {
		if n.OpenArrivals <= 0 || n.OpenOfferedPerSec <= 0 {
			t.Errorf("node %d: no open arrivals recorded: %+v", i, n)
		}
		if n.OpenMeanResponseMS <= 0 || n.OpenMeanInSystem <= 0 {
			t.Errorf("node %d: open queue metrics empty", i)
		}
	}
	// Closed-only runs must keep the open metrics at zero (inert default).
	closed, err := Simulate(WorkloadMB4(8), quick)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range closed.Nodes {
		if n.OpenArrivals != 0 || n.OpenOfferedPerSec != 0 {
			t.Errorf("node %d: closed run reports open arrivals", i)
		}
	}
	if _, err := SolveModel(w); err == nil {
		t.Error("SolveModel accepted a workload without closed users")
	}
	bad := WorkloadMB4(8).WithOpenArrivals(OpenArrivals{
		LambdaPerSec: 0.5,
		Classes:      []OpenClass{{Type: TxnType("nope")}},
	})
	if _, err := Simulate(bad, quick); err == nil {
		t.Error("Simulate accepted an unknown open class type")
	}
}

// TestZipfPatternSimulate smoke-tests the zipf access pattern end to end.
func TestZipfPatternSimulate(t *testing.T) {
	meas, err := Simulate(WorkloadMB4(8).WithZipf(0.99), quick)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Nodes[0].TxnPerSec <= 0 {
		t.Fatal("zipf workload idle")
	}
	if _, err := PatternByName("spiral", 0, 0, 0); err == nil {
		t.Error("PatternByName accepted an unknown pattern")
	}
}

// TestFacadeCapacitySweep smoke-tests the capacity sweep through the public
// API on a small grid with short windows.
func TestFacadeCapacitySweep(t *testing.T) {
	w := WorkloadMB4(8).WithResilience(Resilience{Admission: AdmissionPolicy{MaxMPL: 8}})
	rep, err := CapacitySweep(w, []float64{0.4, 0.8}, SimOptions{
		Seed: 3, WarmupMS: 10_000, DurationMS: 130_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	if rep.BottleneckBoundTPS <= 0 {
		t.Error("no bottleneck bound for a modelable workload")
	}
	if rep.PeakCommittedTPS <= 0 || rep.KneeLambdaTPS <= 0 {
		t.Errorf("empty summary: %+v", rep)
	}
	for _, p := range rep.Points {
		if p.OfferedTPS <= 0 || p.CommittedTPS <= 0 {
			t.Errorf("λ=%v: empty point: %+v", p.LambdaTPS, p)
		}
	}
	if _, err := CapacitySweep(w, nil, SimOptions{}); err == nil {
		t.Error("CapacitySweep accepted an empty grid")
	}
}
