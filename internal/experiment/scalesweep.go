package experiment

import (
	"fmt"

	"carat/internal/disk"
	"carat/internal/placement"
	"carat/internal/storage"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// ScalePoint is the measurement at one (sites, locality, λ) cell of the
// scale-out study, with the per-center utilizations that locate the
// system's bottleneck.
type ScalePoint struct {
	Sites int
	// Locality is the affinity fraction (locality strategy; recorded but
	// inert under hash and range).
	Locality float64
	// LambdaPerSite is the open arrival rate offered per site, txn/s.
	LambdaPerSite float64

	// CommittedTPS is system-wide committed transactions per second;
	// AbortRate is (submissions − commits) / submissions over the window;
	// MeanResponseMS is the commit-weighted mean response time.
	CommittedTPS   float64
	AbortRate      float64
	MeanResponseMS float64

	// The candidate bottleneck centers: the maximum CPU, disk (database or
	// log device) and TM utilization over all sites, and the shared wire's
	// offered utilization (above 1 the offered traffic exceeds the raw
	// channel capacity), plus the wire's per-message contention and
	// queueing delays.
	MaxCPUUtil         float64
	MaxDiskUtil        float64
	MaxTMUtil          float64
	WireUtil           float64
	NetMeanInflationMS float64
	NetMeanQueueMS     float64

	// Bottleneck names the max-utilization center: cpu, disk, tm or wire.
	Bottleneck string
}

// ScaleSweepResult is the full sites × locality × λ grid for one placement
// strategy.
type ScaleSweepResult struct {
	Strategy   placement.Strategy
	Sites      []int
	Localities []float64
	Lambdas    []float64
	// Points is sites-major, then locality, then λ — the same order Table
	// renders.
	Points []ScalePoint
}

// scaleMaxMPL is the per-site admission cap of every scale cell.
const scaleMaxMPL = 12

// ScaleWorkload builds one cell's N-site workload: a homogeneous RM05
// fleet with striped database disks, dedicated log devices and a warm
// buffer (so the per-site centers stay comfortably below saturation and
// the shared wire can become the binding center at scale), uniform access
// over every shard (skewed anchors would pile the scattered traffic onto
// a few hot sites and drown the wire signal in lock thrashing),
// directory-driven placement with the given strategy and affinity, a
// shared Ethernet fabric with one contending host per site, and open
// Poisson arrivals at λ per site under a bounded MPL.
func ScaleWorkload(strategy placement.Strategy, sites int, locality, lambdaPerSite float64) workload.Workload {
	dbs := make([]disk.ServiceModel, sites)
	logs := make([]disk.ServiceModel, sites)
	for i := range dbs {
		dbs[i] = disk.ProfileRM05()
		logs[i] = disk.ProfileRM05()
	}
	return workload.Workload{
		Name:              fmt.Sprintf("SCALE-%v-%d", strategy, sites),
		NumNodes:          sites,
		RequestsPerTxn:    8,
		RecordsPerRequest: 2,
		RemoteFrac:        0.5,
		Layout:            storage.Layout{Granules: 2400, RecordsPerGran: 6},
		Params:            testbed.DefaultParams(sites),
		DBDisks:           dbs,
		LogDisks:          logs,
		DiskStripes:       4,
		BufferHitRatio:    0.9,
		Pattern:           storage.Uniform{},
		Placement:         &testbed.PlacementConfig{Strategy: strategy, Affinity: locality},
		FabricHosts:       sites,
		// The 2.94 Mb/s experimental-Ethernet rate: against the paper's
		// hundreds-of-ms CPU costs per transaction, a 10 Mb/s segment
		// never binds; the original thin-wire rate lets the shared medium
		// become the bottleneck center the sweep is designed to expose.
		FabricBandwidthBitsPerMS: 2.94e3,
		// A distributed submission holds a DM slot at home and at every
		// participant for its whole lifetime, with no deadlock detection on
		// the pool; size it to the worst case (sites × MPL) so cross-site
		// hold-and-wait cycles cannot gridlock low-locality cells.
		DMServers: sites * scaleMaxMPL,
		// Shed past the MPL cap and pace retries so overloaded cells
		// degrade to a goodput plateau instead of queueing without bound.
		Resilience: testbed.Resilience{
			Retry:     testbed.RetryPolicy{BaseBackoffMS: 50},
			Admission: testbed.AdmissionPolicy{MaxMPL: scaleMaxMPL, Shed: true},
		},
		Open: &testbed.OpenConfig{RatePerSec: lambdaPerSite * float64(sites)},
	}
}

// ScaleSweep runs the scale-out study: every site count crossed with every
// locality level and every per-site arrival rate, under one placement
// strategy, measuring throughput and the per-center utilizations that
// locate the bottleneck as the fleet grows and locality drops. The grid
// runs on runGrid, bit-identical for any worker count; every cell runs with
// opts.Seed itself, so cells differ only in their configuration.
func ScaleSweep(strategy placement.Strategy, sites []int, localities, lambdas []float64, opts SimOptions) (*ScaleSweepResult, error) {
	if len(sites) == 0 || len(localities) == 0 || len(lambdas) == 0 {
		return nil, fmt.Errorf("experiment: scale sweep needs site counts, localities and arrival rates")
	}
	if !strategy.Valid() {
		return nil, fmt.Errorf("experiment: scale sweep: unknown placement strategy %d", int(strategy))
	}
	type cell struct {
		sites    int
		locality float64
		lambda   float64
	}
	var cells []cell
	for _, s := range sites {
		for _, loc := range localities {
			for _, l := range lambdas {
				cells = append(cells, cell{sites: s, locality: loc, lambda: l})
			}
		}
	}

	results, err := runGrid(len(cells), opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		cl := cells[i]
		wl := ScaleWorkload(strategy, cl.sites, cl.locality, cl.lambda)
		return simulate(wl, opts.Seed, opts, fmt.Sprintf("%v/%d sites/loc %.2f/λ %.2f", strategy, cl.sites, cl.locality, cl.lambda))
	})
	if err != nil {
		return nil, err
	}

	out := &ScaleSweepResult{Strategy: strategy, Sites: sites, Localities: localities, Lambdas: lambdas}
	for idx, cl := range cells {
		out.Points = append(out.Points, scalePoint(cl.sites, cl.locality, cl.lambda, results[idx]))
	}
	return out, nil
}

// scalePoint aggregates one cell's run into the reported measurement.
func scalePoint(sites int, locality, lambda float64, res testbed.Results) ScalePoint {
	pt := ScalePoint{Sites: sites, Locality: locality, LambdaPerSite: lambda}
	subs, commits, resp := commitTotals(res)
	pt.MeanResponseMS = resp
	for _, nr := range res.Nodes {
		if nr.CPUUtilization > pt.MaxCPUUtil {
			pt.MaxCPUUtil = nr.CPUUtilization
		}
		if nr.DBDiskUtilization > pt.MaxDiskUtil {
			pt.MaxDiskUtil = nr.DBDiskUtilization
		}
		if nr.LogDiskUtilization > pt.MaxDiskUtil {
			pt.MaxDiskUtil = nr.LogDiskUtilization
		}
		if nr.TMUtilization > pt.MaxTMUtil {
			pt.MaxTMUtil = nr.TMUtilization
		}
	}
	if res.Window > 0 {
		pt.CommittedTPS = float64(commits) / res.Window * 1000
	}
	// Commits of submissions that straddle the warmup boundary can nudge
	// commits past subs; clamp instead of reporting a negative rate.
	if subs > 0 && commits < subs {
		pt.AbortRate = float64(subs-commits) / float64(subs)
	}
	pt.WireUtil = res.NetUtilization
	pt.NetMeanInflationMS = res.NetMeanInflationMS
	pt.NetMeanQueueMS = res.NetMeanQueueMS
	pt.Bottleneck = bottleneckOf(pt)
	return pt
}

// bottleneckOf names the max-utilization center of one cell.
func bottleneckOf(pt ScalePoint) string {
	name, max := "cpu", pt.MaxCPUUtil
	if pt.MaxDiskUtil > max {
		name, max = "disk", pt.MaxDiskUtil
	}
	if pt.MaxTMUtil > max {
		name, max = "tm", pt.MaxTMUtil
	}
	if pt.WireUtil > max {
		name = "wire"
	}
	return name
}
