package experiment

import (
	"math"
	"testing"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// TestFullValidationSweep is the repository's strongest claim check: over
// all four workloads and the paper's full transaction-size sweep, the
// model must track the simulator on all three reported metrics within the
// paper's own deviation band, and the qualitative shapes must hold:
//
//   - TR-XPUT declines monotonically in n on both sides;
//   - Node A is at least as fast as node B;
//   - the model errs toward optimism at the largest n.
//
// Skipped with -short (it simulates 4 x 5 half-hour windows).
func TestFullValidationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation sweep")
	}
	opts := SimOptions{Seed: 2, Warmup: 60_000, Duration: 1_860_000}
	mks := map[string]func(int) workload.Workload{
		"LB8": workload.LB8,
		"MB4": workload.MB4,
		"MB8": workload.MB8,
		"UB6": workload.UB6,
	}
	for name, mk := range mks {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			comps := sweep(t, mk, PaperNs(), opts)
			for node := 0; node < 2; node++ {
				var prevSim, prevMod float64 = math.Inf(1), math.Inf(1)
				for _, c := range comps {
					mo, me := TxnThroughput.Get(c, node)
					// Quantitative band: within the paper's observed
					// deviations (up to ~40% at the extremes).
					rel := (mo - me) / me
					if rel < -0.45 || rel > 0.60 {
						t.Errorf("%s n=%d node %d: model %0.3f vs sim %0.3f (rel %+.0f%%)",
							name, c.N, node, mo, me, rel*100)
					}
					// Monotone decline (allow 3% noise on the simulation).
					if me > prevSim*1.03 {
						t.Errorf("%s node %d: sim throughput rose at n=%d (%v > %v)",
							name, node, c.N, me, prevSim)
					}
					if mo > prevMod*1.001 {
						t.Errorf("%s node %d: model throughput rose at n=%d", name, node, c.N)
					}
					prevSim, prevMod = me, mo
				}
			}
			// Node A >= node B at every n, both sides.
			for _, c := range comps {
				moA, meA := TxnThroughput.Get(c, 0)
				moB, meB := TxnThroughput.Get(c, 1)
				if moA < moB || meA < meB*0.97 {
					t.Errorf("%s n=%d: node ordering violated (model %v/%v, sim %v/%v)",
						name, c.N, moA, moB, meA, meB)
				}
			}
			// Model optimism at the largest n (the paper's high-n bias).
			last := comps[len(comps)-1]
			mo, me := TxnThroughput.Get(last, 0)
			if mo < me*0.95 {
				t.Errorf("%s: at n=20 the model (%v) should not undershoot the sim (%v)", name, mo, me)
			}
		})
	}
}

// TestNetworkDelayConsistency raises α and checks model and simulator
// degrade together on distributed throughput while local types are nearly
// unaffected.
func TestNetworkDelayConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("network sweep")
	}
	opts := SimOptions{Seed: 4, Warmup: 60_000, Duration: 1_260_000}
	duRate := func(alpha float64) (model, sim, lroModel, lroSim float64) {
		wl := workload.MB4(8)
		wl.Alpha = alpha
		c, err := Run(wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c.Model.Sites[0].ThroughputOf("DU") * 1000,
			c.Measured.Nodes[0].TxnThroughput[testbed.DU],
			c.Model.Sites[0].ThroughputOf("LRO") * 1000,
			c.Measured.Nodes[0].TxnThroughput[testbed.LRO]
	}
	m0, s0, l0m, l0s := duRate(0)
	m200, s200, l200m, l200s := duRate(200)
	if m200 >= m0 || s200 >= s0 {
		t.Fatalf("200 ms hops must slow DU: model %v->%v, sim %v->%v", m0, m200, s0, s200)
	}
	// Local chains lose far less (only through shared-resource coupling).
	relLocalM := (l0m - l200m) / l0m
	relLocalS := (l0s - l200s) / l0s
	relDUM := (m0 - m200) / m0
	relDUS := (s0 - s200) / s0
	if relLocalM > relDUM || relLocalS > relDUS {
		t.Fatalf("local types should suffer less than DU: local %v/%v vs DU %v/%v",
			relLocalM, relLocalS, relDUM, relDUS)
	}
}
