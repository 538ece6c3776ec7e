package carat

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"carat/internal/testbed"
)

// facadePin is one pinned run: the SHA-256 of json.Marshal of its
// testbed.Results and of the facade Measurement built from them.
type facadePin struct {
	name      string
	w         Workload
	opts      SimOptions
	res, meas string
}

// facadePins are the runs TestFacadeJSONPins fixes. The two-site run drives
// every per-site metric group off zero: a crash, message loss and timeouts,
// a scheduled partition, a gray site, a queueing admission gate, probe loss
// with retransmission, R=2 quorum reads and open arrivals. The 4-site scale
// fleet routes its traffic over the shared Ethernet, so the Net* fields are
// set, and its admission gate sheds.
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
	return []facadePin{
		{
			name: "two-site-all-groups",
			w:    sink,
			opts: SimOptions{Seed: 7, WarmupMS: 10_000, DurationMS: 120_000},
			res:  "fb32209793b9573ada3ce0a8f19d2779940e11558dd3a394c0ab06bc155f7457",
			meas: "750e94be219f45232392510fb491f56afbb02b8d37fe05b00ef1d1f426090152",
		},
		{
			name: "scale-fleet-4",
			w:    fleet,
			opts: SimOptions{Seed: 11, WarmupMS: 5_000, DurationMS: 35_000},
			res:  "ff1549cdd178651b91eb14e3b1a0360004a342fe52ac6b0caa4abfc2fc834e12",
			meas: "7761bd2c0d690a612594547fdaf560d1ec2f98eee1392cb3bbb5ebadf8693be6",
		},
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

// TestFacadeJSONPins fixes the JSON of both result layers, testbed.Results
// and the facade's Measurement (what caratsim -json prints), for runs that
// set every per-site metric group and the shared-fabric fields. A change to
// any field's name, order, tag or value changes a hash.
func TestFacadeJSONPins(t *testing.T) {
	for _, c := range facadePins(t) {
		t.Run(c.name, func(t *testing.T) {
			e := c.opts.fill()
			sys, err := testbed.New(c.w.w.TestbedConfig(e.Seed, e.Warmup, e.Duration))
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run()
			m, err := Simulate(c.w, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if jsonSHA(t, m) != jsonSHA(t, measurementFrom(res)) {
				t.Fatal("Simulate's Measurement differs from the one built from the same run's Results")
			}
			if got := jsonSHA(t, res); got != c.res {
				t.Errorf("testbed.Results JSON hash = %s, want %s", got, c.res)
			}
			if got := jsonSHA(t, m); got != c.meas {
				t.Errorf("Measurement JSON hash = %s, want %s", got, c.meas)
			}
		})
	}
}
