package carat

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"carat/internal/testbed"
)

// facadePin is one pinned facade call: run makes its result and sha is the
// SHA-256 of that result's json.Marshal.
type facadePin struct {
	name string
	run  func(t *testing.T) (any, error)
	sha  string
}

// facadePins are the calls TestFacadeJSONPins fixes. The two-site run drives
// every per-site metric group off zero: a crash, message loss and timeouts,
// a scheduled partition, a gray site, a queueing admission gate, probe loss
// with retransmission, R=2 quorum reads and open arrivals. The 4-site scale
// fleet routes its traffic over the shared Ethernet, so the Net* fields are
// set, and its admission gate sheds. The sweep rows run one- or two-point
// grids over short windows, enough to fix each report's layout.
func facadePins(t *testing.T) []facadePin {
	t.Helper()
	faults, err := ParseFaultPlan("crash=1@40000+8000,loss=0.02,lockto=4000,prepto=3000,probeloss=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if err := ParsePartitions("0|1@70000+10000", &faults); err != nil {
		t.Fatal(err)
	}
	if err := ParseGraySites("0@20000+30000*3", &faults); err != nil {
		t.Fatal(err)
	}
	res, err := ParseResilience("mpl=4,probe=2000")
	if err != nil {
		t.Fatal(err)
	}
	sink := WorkloadMB4(8).
		WithFaults(faults).
		WithResilience(res).
		WithReplication(ReplicationPolicy{Factor: 2, ReadQuorum: true}).
		WithOpenArrivals(OpenArrivals{LambdaPerSec: 1})
	fleet, err := NewScaleConfig(4, LocalityPlacement, 0.8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sweep := SimOptions{Seed: 5, WarmupMS: 5_000, DurationMS: 30_000}
	return []facadePin{
		{
			name: "two-site-all-groups",
			run: simulated(sink, SimOptions{Seed: 7, WarmupMS: 10_000, DurationMS: 120_000},
				"fb32209793b9573ada3ce0a8f19d2779940e11558dd3a394c0ab06bc155f7457"),
			sha: "750e94be219f45232392510fb491f56afbb02b8d37fe05b00ef1d1f426090152",
		},
		{
			name: "scale-fleet-4",
			run: simulated(fleet, SimOptions{Seed: 11, WarmupMS: 5_000, DurationMS: 35_000},
				"ff1549cdd178651b91eb14e3b1a0360004a342fe52ac6b0caa4abfc2fc834e12"),
			sha: "7761bd2c0d690a612594547fdaf560d1ec2f98eee1392cb3bbb5ebadf8693be6",
		},
		{
			name: "capacity-sweep",
			run: func(*testing.T) (any, error) {
				return CapacitySweep(WorkloadMB4(8).WithResilience(res), []float64{0.5, 1}, sweep)
			},
			sha: "ca09d16c612d7ef9b2c361f9d064d39b2e2a8c7cb258b6b1348554de25ae7069",
		},
		{
			name: "cc-comparison",
			run: func(*testing.T) (any, error) {
				return CompareConcurrencyControls([]ConcurrencyControl{TwoPhaseLocking, OptimisticCC}, []int{1}, sweep)
			},
			sha: "9772875d553af00bc4b48750eec8d189066df4118531f5f79c3c09bf1cfc7417",
		},
		{
			name: "scale-sweep",
			run: func(*testing.T) (any, error) {
				return ScaleSweep(HashPlacement, []int{4}, []float64{0.5}, []float64{1, 2}, sweep)
			},
			sha: "f045298abd0782a1e5ffdab33b4faf7f70a2aa4b9af5531e67f6f9ea124c05c3",
		},
	}
}

// simulated runs w through Simulate, pins the JSON of the testbed.Results
// beneath it to res, checks that Simulate's Measurement is the one built
// from those Results, and returns the Measurement.
func simulated(w Workload, opts SimOptions, res string) func(t *testing.T) (any, error) {
	return func(t *testing.T) (any, error) {
		e := opts.fill()
		sys, err := testbed.New(w.w.TestbedConfig(e.Seed, e.Warmup, e.Duration))
		if err != nil {
			return nil, err
		}
		r := sys.Run()
		m, err := Simulate(w, opts)
		if err != nil {
			return nil, err
		}
		if jsonSHA(t, m) != jsonSHA(t, measurementFrom(r)) {
			t.Fatal("Simulate's Measurement differs from the one built from the same run's Results")
		}
		if got := jsonSHA(t, r); got != res {
			t.Errorf("testbed.Results JSON hash = %s, want %s", got, res)
		}
		return m, nil
	}
}

func jsonSHA(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestFacadeJSONPins fixes the JSON of the facade's results: both result
// layers of a simulator run, testbed.Results and the facade's Measurement
// (what caratsim -json prints), for runs that set every per-site metric
// group and the shared-fabric fields, and the reports of the capacity,
// concurrency-control and scale sweeps. A change to any field's name,
// order, tag or value changes a hash.
func TestFacadeJSONPins(t *testing.T) {
	for _, c := range facadePins(t) {
		t.Run(c.name, func(t *testing.T) {
			v, err := c.run(t)
			if err != nil {
				t.Fatal(err)
			}
			if got := jsonSHA(t, v); got != c.sha {
				t.Errorf("JSON hash = %s, want %s", got, c.sha)
			}
		})
	}
}
