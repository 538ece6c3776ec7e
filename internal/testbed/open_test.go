package testbed

import (
	"math"
	"testing"

	"carat/internal/openload"
	"carat/internal/storage"
)

// openConfig builds a two-node open-arrival system with no closed users.
func openConfig(lambda float64, n int, seed uint64) Config {
	cfg := twoNodeConfig(nil, n, seed)
	cfg.Open = &OpenConfig{RatePerSec: lambda}
	return cfg
}

// An open run at a light load must commit close to the offered rate: the
// system is far from saturation, so essentially every arrival gets through.
func TestOpenArrivalsCommitOfferedLoad(t *testing.T) {
	cfg := openConfig(0.8, 4, 99)
	cfg.Warmup = 30_000
	cfg.Duration = 630_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	var offered, committed, arrivals float64
	for _, nr := range res.Nodes {
		offered += nr.OpenOfferedPerSec
		committed += nr.TotalTxnThroughput
		arrivals += float64(nr.OpenArrivals)
		if nr.OpenMeanInSystem <= 0 {
			t.Errorf("node mean-in-system not tracked: %v", nr.OpenMeanInSystem)
		}
		if nr.OpenMeanResponseMS <= 0 || nr.OpenP95ResponseMS < nr.OpenP50ResponseMS {
			t.Errorf("bad open response stats: mean=%v p50=%v p95=%v",
				nr.OpenMeanResponseMS, nr.OpenP50ResponseMS, nr.OpenP95ResponseMS)
		}
	}
	if arrivals < 300 {
		t.Fatalf("too few arrivals for a 600s window at λ=0.8: %v", arrivals)
	}
	if math.Abs(offered-0.8) > 0.15 {
		t.Errorf("measured offered rate %v not near λ=0.8", offered)
	}
	// Committed ≈ offered, minus the handful still in flight at the end.
	if committed < 0.85*offered {
		t.Errorf("committed %v too far below offered %v at light load", committed, offered)
	}
}

// Same seed ⇒ byte-identical open-mode results, including the arrival
// stream, class draws and per-arrival workload substreams.
func TestOpenRunDeterministic(t *testing.T) {
	run := func() Results {
		cfg := openConfig(1.5, 4, 7)
		cfg.Open.Burst = openload.Burst{OnMeanMS: 5_000, OffMeanMS: 20_000, Factor: 3}
		cfg.Open.Classes = []OpenClass{
			{Kind: LU, Weight: 2},
			{Kind: DU, Weight: 1, Requests: 8, RemoteFrac: 0.25},
			{Kind: LRO, Weight: 1},
		}
		cfg.Warmup = 20_000
		cfg.Duration = 220_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	a, b := run(), run()
	for i := range a.Nodes {
		if a.Nodes[i].OpenArrivals != b.Nodes[i].OpenArrivals ||
			a.Nodes[i].TotalTxnThroughput != b.Nodes[i].TotalTxnThroughput ||
			a.Nodes[i].OpenMeanResponseMS != b.Nodes[i].OpenMeanResponseMS {
			t.Fatalf("node %d diverged across identical runs: %+v vs %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
}

// Open arrivals compose with closed users: a mixed run keeps both paths
// live, and the closed users' draws are not perturbed by open streams.
func TestOpenMixedWithClosedUsers(t *testing.T) {
	cfg := twoNodeConfig(mb4Users(), 4, 11)
	cfg.Warmup = 20_000
	cfg.Duration = 220_000
	cfg.Open = &OpenConfig{RatePerSec: 0.5, Classes: []OpenClass{{Kind: LRO}}}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	var arrivals int64
	var commits int64
	for _, nr := range res.Nodes {
		arrivals += nr.OpenArrivals
		for _, c := range nr.Commits {
			commits += c
		}
	}
	if arrivals == 0 {
		t.Fatal("no open arrivals in mixed mode")
	}
	if commits == 0 {
		t.Fatal("no commits in mixed mode")
	}
}

// A ramp schedule must shape the arrival stream over the run.
func TestOpenRampSchedule(t *testing.T) {
	cfg := openConfig(0, 4, 5)
	cfg.Open = &OpenConfig{Ramp: []OpenRampPoint{{AtMS: 0, RatePerSec: 0.2}, {AtMS: 400_000, RatePerSec: 2}}}
	cfg.Warmup = 0
	cfg.Duration = 400_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	var arrivals float64
	for _, nr := range res.Nodes {
		arrivals += float64(nr.OpenArrivals)
	}
	// Mean rate over the ramp is 1.1/s → ~440 arrivals over 400 s.
	if arrivals < 300 || arrivals > 600 {
		t.Fatalf("ramped arrival count %v far from expectation ~440", arrivals)
	}
}

func TestOpenConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative rate", func(c *Config) { c.Open.RatePerSec = -1; c.Open.Ramp = []OpenRampPoint{{0, 1}} }},
		{"per-site length", func(c *Config) { c.Open.PerSiteRatePerSec = []float64{1} }},
		{"unsorted ramp", func(c *Config) {
			c.Open.Ramp = []OpenRampPoint{{1000, 1}, {0, 2}}
		}},
		{"burst without sojourns", func(c *Config) { c.Open.Burst = openload.Burst{Factor: 4} }},
		{"bad class kind", func(c *Config) { c.Open.Classes = []OpenClass{{Kind: TxnKind(9)}} }},
		{"bad class remote frac", func(c *Config) {
			c.Open.Classes = []OpenClass{{Kind: LU, RemoteFrac: 2}}
		}},
		{"bad class pattern", func(c *Config) {
			c.Open.Classes = []OpenClass{{Kind: LU, Pattern: storage.NewZipf(math.Inf(1))}}
		}},
	}
	for _, tc := range cases {
		cfg := openConfig(1, 4, 1)
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestOpenConfigRejectsNonFinite pins that every open-arrival rate, time
// and burst parameter rejects NaN and ±Inf: an infinite rate draws zero
// interarrival gaps and a NaN one never advances the clock, so either
// would spin the simulator forever instead of failing at New.
func TestOpenConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*OpenConfig)
	}{
		{"RatePerSec NaN", func(o *OpenConfig) { o.RatePerSec = nan }},
		{"RatePerSec +Inf", func(o *OpenConfig) { o.RatePerSec = inf }},
		{"PerSiteRatePerSec NaN", func(o *OpenConfig) { o.PerSiteRatePerSec = []float64{1, nan} }},
		{"PerSiteRatePerSec +Inf", func(o *OpenConfig) { o.PerSiteRatePerSec = []float64{inf, 1} }},
		{"Ramp rate +Inf", func(o *OpenConfig) { o.Ramp = []OpenRampPoint{{0, 1}, {1000, inf}} }},
		{"Ramp time NaN", func(o *OpenConfig) { o.Ramp = []OpenRampPoint{{nan, 1}} }},
		{"Ramp time -Inf", func(o *OpenConfig) { o.Ramp = []OpenRampPoint{{-inf, 1}, {0, 2}} }},
		{"Burst Factor +Inf", func(o *OpenConfig) { o.Burst = openload.Burst{Factor: inf, OnMeanMS: 100, OffMeanMS: 100} }},
		{"Burst OnMeanMS NaN", func(o *OpenConfig) { o.Burst = openload.Burst{Factor: 4, OnMeanMS: nan, OffMeanMS: 100} }},
		{"Burst OffMeanMS +Inf", func(o *OpenConfig) { o.Burst = openload.Burst{Factor: 4, OnMeanMS: 100, OffMeanMS: inf} }},
	}
	for _, tc := range cases {
		cfg := openConfig(1, 4, 1)
		tc.mut(cfg.Open)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
