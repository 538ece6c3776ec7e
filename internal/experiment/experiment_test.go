package experiment

import (
	"strings"
	"testing"

	"carat/internal/workload"
)

// quickOpts keeps unit-test simulations short.
func quickOpts() SimOptions {
	return SimOptions{Seed: 1, Warmup: 30_000, Duration: 600_000}
}

// sweep runs one simulation per point and returns the single-run views.
func sweep(t testing.TB, mk func(int) workload.Workload, ns []int, opts SimOptions) []*Comparison {
	t.Helper()
	rcs, err := SweepReplicated(mk, ns, opts)
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]*Comparison, len(rcs))
	for i, rc := range rcs {
		comps[i] = rc.First()
	}
	return comps
}

func TestRunProducesBothSides(t *testing.T) {
	c, err := Run(workload.MB4(8), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload != "MB4" || c.N != 8 {
		t.Fatalf("identity wrong: %s n=%d", c.Workload, c.N)
	}
	for node := 0; node < 2; node++ {
		for _, m := range []Metric{RecordThroughput, CPUUtilization, DiskIORate, TxnThroughput} {
			mo, me := m.Get(c, node)
			if mo <= 0 || me <= 0 {
				t.Fatalf("node %d %s: model %v measured %v", node, m.Name, mo, me)
			}
		}
	}
}

// TestModelTracksSimulation is the reproduction's core validation: across
// the paper's sweep, model and simulation must agree in shape. We check
// relative error bounds looser than the paper's (our simulation windows in
// unit tests are short) and the qualitative claims exactly.
func TestModelTracksSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation sweep")
	}
	opts := SimOptions{Seed: 1, Warmup: 60_000, Duration: 1_860_000}
	comps := sweep(t, workload.MB8, []int{4, 12, 20}, opts)
	for _, c := range comps {
		for node := 0; node < 2; node++ {
			mo, me := TxnThroughput.Get(c, node)
			relErr := (mo - me) / me
			if relErr < -0.5 || relErr > 0.8 {
				t.Errorf("n=%d node %d: model %v vs sim %v (rel err %v)", c.N, node, mo, me, relErr)
			}
		}
	}
	// Qualitative: throughput decreases with n on both sides.
	for node := 0; node < 2; node++ {
		moFirst, meFirst := TxnThroughput.Get(comps[0], node)
		moLast, meLast := TxnThroughput.Get(comps[len(comps)-1], node)
		if moLast >= moFirst || meLast >= meFirst {
			t.Errorf("node %d: throughput must fall with n (model %v->%v, sim %v->%v)",
				node, moFirst, moLast, meFirst, meLast)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	f, err := Figure5([]int{4, 8}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want model+simulation", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 2 || len(s.Y) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has nonpositive value", s.Name)
			}
		}
	}
	out := f.ASCII()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Record Throughput") {
		t.Fatalf("ASCII rendering missing labels:\n%s", out)
	}
}

func TestFigure8HasFourSeries(t *testing.T) {
	f, err := Figure8([]int{4}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4 (model+sim per node)", len(f.Series))
	}
}

func TestTable3Layout(t *testing.T) {
	tb, err := Table3([]int{4, 8}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // 2 n-values x 2 nodes
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	out := tb.Render()
	if !strings.Contains(out, "MB8") || !strings.Contains(out, "TR-XPUT") {
		t.Fatalf("rendering missing labels:\n%s", out)
	}
}

func TestTable5PerTypeRows(t *testing.T) {
	tb, err := Table5([]int{4}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // one n-value x four types
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	var types []string
	for _, r := range tb.Rows {
		types = append(types, r[1])
	}
	want := []string{"LRO", "LU", "DRO", "DU"}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("type order = %v, want %v", types, want)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	tb, err := Table1(3, 2, 4, 0.1, 0.05, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, label := range []string{"UT", "INIT", "DMIO", "CWC"} {
		if !strings.Contains(out, label) {
			t.Fatalf("Table 1 missing %s:\n%s", label, out)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2().Render()
	for _, v := range []string{"7.8", "12.0", "8.6", "2.2", "120.0"} {
		if !strings.Contains(out, v) {
			t.Fatalf("Table 2 missing %s:\n%s", v, out)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := func(n int) workload.Workload {
		wl := workload.MB4(n)
		wl.Users = nil
		return wl
	}
	if _, err := SweepReplicated(bad, []int{4}, quickOpts()); err == nil {
		t.Fatal("expected error from invalid workload")
	}
}

func TestPaperNs(t *testing.T) {
	ns := PaperNs()
	want := []int{4, 8, 12, 16, 20}
	if len(ns) != len(want) {
		t.Fatalf("PaperNs = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("PaperNs = %v, want %v", ns, want)
		}
	}
}

func TestFigureResponseTimes(t *testing.T) {
	f, err := FigureResponseTimes([]int{4, 8}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	// Response times rise with n on both sides, and model tracks sim.
	for _, s := range f.Series {
		if s.Y[1] <= s.Y[0] {
			t.Fatalf("%s: response time should rise with n: %v", s.Name, s.Y)
		}
	}
	mo, me := f.Series[0].Y[1], f.Series[1].Y[1]
	if mo < 0.5*me || mo > 1.6*me {
		t.Fatalf("model response %v vs sim %v diverge", mo, me)
	}
}
