package main

import (
	"fmt"
	"math"

	"carat"
	"carat/internal/cc"
	"carat/internal/core"
	"carat/internal/experiment"
	"carat/internal/placement"
	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// cell is one point of a workload's rotation: the simulated configuration
// one operation runs.
type cell struct {
	label string
	wl    workload.Workload
	// Identity of the cell in the public facade's terms, for the facade
	// cross-check and the replay line.
	name  string // paper workload (paper-grid, chaos-audit)
	n     int    // transaction size (paper-grid)
	sites int    // fleet size (scale-fleet)
	cc    string // concurrency control (chaos-audit)
	r     int    // replication factor (chaos-audit)
}

// spec is one named benchmark workload: its rotation of cells, the
// simulated horizon of every operation, and how an operation runs.
type spec struct {
	name     string
	cells    []cell
	warmup   float64 // simulated ms discarded before measurement
	duration float64 // simulated ms, warm-up included
	// setUpBuilds is how many rotations one set-up measurement builds:
	// enough for some 20 ms of work.
	setUpBuilds int
	// roundS is the reference pace: wall seconds one untraced round takes
	// on the reference machine (see README.md), calibration included. It
	// turns --seconds into a fixed number of rounds.
	roundS float64
	// calibrate is the calibration workload that scales the workload's host
	// times to the reference speed (see speedometer).
	calibrate func() float64
	// exec runs one operation. tr, when non-nil, is installed as the
	// measured system's Config.Trace (chained after the chaos auditor).
	exec func(s *spec, c cell, seed uint64, tr func(testbed.TraceEvent)) *opResult
	// facade re-runs the operation through the public carat package and
	// reports any difference from the benchmark's own decomposition.
	facade func(s *spec, c cell, seed uint64, r *opResult) error
	// replay renders the command that reproduces one operation alone.
	replay func(s *spec, c cell, seed uint64) string
}

// opResult is everything one operation produced and cost.
type opResult struct {
	// Host CPU time (see cpuNow), ns.
	opNS    int64 // the whole operation
	solveNS int64 // building the model and core.Solve (paper-grid)
	newNS   int64 // building the config and testbed.New
	runNS   int64 // inside System.Run
	allocB  uint64
	mallocs uint64

	iterations int     // model fixed-point iterations (paper-grid)
	simMS      float64 // simulated ms the measured Run advanced, warm-up included
	subs       int64   // simulated submissions (commits plus aborts) in the window
	commits    int64
	res        testbed.Results // dropped after round 0 to keep the process small
	modelErr   float64         // |model − sim| / sim TR-XPUT (paper-grid; NaN elsewhere)
	chaos      *experiment.ChaosReport

	// failure is non-empty when the operation failed: an error, a panic,
	// an audit violation, a stalled simulation or a mismatched repeat.
	failure string
	// wrong is non-empty when an output check failed: the program produced
	// an inconsistent result without reporting a failure.
	wrong string
}

func (r *opResult) ok() bool { return r.failure == "" && r.wrong == "" }

// simHours is the simulated time the measured run advanced, in hours.
func (r *opResult) simHours() float64 { return r.simMS / 3.6e6 }

var specs = []*spec{paperGrid(), scaleFleet(), chaosAudit()}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-grid, scale-fleet, chaos-audit or all)", name)
}

// paperGrid is the 1987 reproduction: model solve plus a closed two-site
// simulation (8 terminals per site, zero think time) for every cell of
// {LB8, MB4, MB8, UB6} × n ∈ {4, 8, 12, 16, 20}, at caratsim's 2-minute
// warm-up and a 10-minute measurement window.
func paperGrid() *spec {
	s := &spec{name: "paper-grid", warmup: 120_000, duration: 720_000, setUpBuilds: 20, roundS: 1.875, calibrate: calibrate}
	for _, name := range []string{"LB8", "MB4", "MB8", "UB6"} {
		for n := 4; n <= 20; n += 4 {
			wl, err := workload.ByName(name, n)
			if err != nil {
				panic(err)
			}
			s.cells = append(s.cells, cell{label: fmt.Sprintf("%s(%d)", name, n), wl: wl, name: name, n: n})
		}
	}
	s.exec = func(s *spec, c cell, seed uint64, tr func(testbed.TraceEvent)) *opResult {
		r := &opResult{}
		t0 := cpuNow()
		m, err := c.wl.Model()
		if err != nil {
			r.failure = fmt.Sprintf("model: %v", err)
			return r
		}
		model, err := core.Solve(m)
		r.solveNS = cpuNow() - t0
		if err != nil {
			r.failure = fmt.Sprintf("solve: %v", err)
			return r
		}
		r.iterations = model.Iterations
		if measure(s, c.wl, seed, tr, r) == nil {
			return r
		}
		r.opNS = cpuNow() - t0
		r.modelErr = modelError(model, r.res)
		if !model.Converged || math.IsNaN(r.modelErr) || math.IsInf(r.modelErr, 0) {
			r.wrong = fmt.Sprintf("model: converged=%v, TR-XPUT error %v", model.Converged, r.modelErr)
		}
		return r
	}
	s.facade = func(s *spec, c cell, seed uint64, r *opResult) error {
		w, err := carat.WorkloadByName(c.name, c.n)
		if err != nil {
			return err
		}
		cmp, err := carat.Compare(w, carat.SimOptions{Seed: seed, WarmupMS: s.warmup, DurationMS: s.duration, Workers: 1})
		if err != nil {
			return err
		}
		return sameMeasurement(cmp.Measured, r.res)
	}
	s.replay = func(s *spec, c cell, seed uint64) string {
		return fmt.Sprintf("caratsim -workload %s -n %d -seed %d -minutes %g",
			c.name, c.n, seed, (s.duration-s.warmup)/60_000)
	}
	return s
}

// scaleFleet is the open-arrival scale-out study at λ = 1 txn/s per site
// on the contended Ethernet: locality-placed fleets of 16, 64 and 128
// sites at affinity 0.5.
func scaleFleet() *spec {
	s := &spec{name: "scale-fleet", warmup: 5_000, duration: 15_000, setUpBuilds: 4, roundS: 0.625, calibrate: calibrateLarge}
	for _, sites := range []int{16, 64, 128} {
		s.cells = append(s.cells, cell{
			label: fmt.Sprintf("sites=%d,locality=0.5", sites),
			wl:    experiment.ScaleWorkload(placement.Locality, sites, 0.5, 1),
			sites: sites,
		})
	}
	s.exec = func(s *spec, c cell, seed uint64, tr func(testbed.TraceEvent)) *opResult {
		r := &opResult{}
		t0 := cpuNow()
		if measure(s, c.wl, seed, tr, r) != nil {
			r.opNS = cpuNow() - t0
		}
		r.modelErr = math.NaN()
		return r
	}
	s.facade = func(s *spec, c cell, seed uint64, r *opResult) error {
		w, err := carat.NewScaleConfig(c.sites, carat.LocalityPlacement, 0.5, 1)
		if err != nil {
			return err
		}
		m, err := carat.Simulate(w, carat.SimOptions{Seed: seed, WarmupMS: s.warmup, DurationMS: s.duration, Workers: 1})
		if err != nil {
			return err
		}
		return sameMeasurement(m, r.res)
	}
	s.replay = func(s *spec, c cell, seed uint64) string {
		return fmt.Sprintf("carat.Simulate(carat.NewScaleConfig(%d, \"locality\", 0.5, 1), carat.SimOptions{Seed: %d, WarmupMS: %g, DurationMS: %g})",
			c.sites, seed, s.warmup, s.duration)
	}
	return s
}

// chaosAudit is the write and recovery path: one randomized chaos audit
// run (a fault-free baseline, one crash/loss/partition run, the Auditor)
// on MB4(8) per operation, rotating over CC ∈ {2PL, OCC, QueCC} ×
// R ∈ {1, 2} with partitions on, at caratsim's 5 s warm-up and 90 s
// horizon. Each operation's faulted run is then replayed from its recorded
// plan through testbed.New/System.Run: the replay must reproduce the
// audit's goodput and violations exactly, and it is where the simulation
// is timed and counted.
func chaosAudit() *spec {
	s := &spec{name: "chaos-audit", warmup: 5_000, duration: 90_000, setUpBuilds: 20, roundS: 0.22, calibrate: calibrate}
	for _, ccName := range []string{"2PL", "OCC", "QueCC"} {
		paradigm, err := cc.Parse(ccName)
		if err != nil {
			panic(err)
		}
		for _, r := range []int{1, 2} {
			wl := workload.MB4(8)
			wl.Concurrency = testbed.CCProtocol(paradigm) // the two enumerations match by design
			wl.Replication = repl.Policy{Factor: r, Read: repl.ReadOne}
			s.cells = append(s.cells, cell{label: fmt.Sprintf("MB4(8),%s,R=%d", ccName, r), wl: wl, name: "MB4", n: 8, cc: ccName, r: r})
		}
	}
	s.exec = func(s *spec, c cell, seed uint64, tr func(testbed.TraceEvent)) *opResult {
		r := &opResult{modelErr: math.NaN()}
		t0 := cpuNow()
		rep, err := experiment.RunChaos(c.wl, experiment.ChaosOptions{
			Runs: 1, Seed: seed, Warmup: s.warmup, Duration: s.duration, Partitions: true,
		})
		r.opNS = cpuNow() - t0
		if err != nil {
			r.failure = fmt.Sprintf("chaos: %v", err)
			return r
		}
		r.chaos = rep
		run := rep.Runs[0]

		plan := run.Plan // a copy, with its own partition list, so the report stays as recorded
		plan.Partitions = append([]testbed.PartitionSchedule(nil), plan.Partitions...)
		cw := c.wl
		cw.Faults = &plan
		cw.Resilience = run.Resilience
		aud := testbed.NewAuditor()
		record := aud.Record
		if tr != nil {
			record = func(ev testbed.TraceEvent) { aud.Record(ev); tr(ev) }
		}
		sys := measure(s, cw, run.Seed, record, r)
		if sys == nil {
			return r
		}
		violations := aud.Audit(sys)
		var tps float64
		for _, n := range r.res.Nodes {
			tps += n.TotalTxnThroughput
		}
		switch {
		case tps != run.GoodputTPS:
			r.failure = fmt.Sprintf("replay: goodput %v txn/s, audit run had %v", tps, run.GoodputTPS)
		case len(violations) > len(run.Violations) || fmt.Sprint(violations) != fmt.Sprint(run.Violations[:len(violations)]):
			r.failure = fmt.Sprintf("replay: violations %q, audit run had %q", violations, run.Violations)
		case len(run.Violations) > 0:
			r.failure = fmt.Sprintf("audit: %d violation(s), first: %s", len(run.Violations), run.Violations[0])
		}
		return r
	}
	s.facade = func(s *spec, c cell, seed uint64, r *opResult) error {
		proto, err := carat.ParseConcurrencyControl(c.cc)
		if err != nil {
			return err
		}
		w := carat.WorkloadMB4(8).WithConcurrencyControl(proto).WithReplication(carat.ReplicationPolicy{Factor: c.r})
		rep, err := carat.RunChaos(w, carat.ChaosOptions{Runs: 1, Seed: seed, WarmupMS: s.warmup, DurationMS: s.duration, Partitions: true})
		if err != nil {
			return err
		}
		want := r.chaos
		got := rep.Runs[0]
		if rep.BaselineTPS != want.BaselineTPS || got.Seed != want.Runs[0].Seed || got.GoodputTPS != want.Runs[0].GoodputTPS ||
			fmt.Sprint(got.Violations) != fmt.Sprint(want.Runs[0].Violations) {
			return fmt.Errorf("carat.RunChaos gave baseline %v, run %+v; experiment.RunChaos gave baseline %v, run seed %d goodput %v violations %q",
				rep.BaselineTPS, got, want.BaselineTPS, want.Runs[0].Seed, want.Runs[0].GoodputTPS, want.Runs[0].Violations)
		}
		return nil
	}
	s.replay = func(s *spec, c cell, seed uint64) string {
		return fmt.Sprintf("caratsim -workload MB4 -n 8 -cc %s -repl R=%d -chaos 1 -chaospartitions -seed %d", c.cc, c.r, seed)
	}
	return s
}

// measure times the config build plus testbed.New and System.Run, counts
// the run's heap allocation and checks the results. It returns the run
// system, or nil when the operation failed.
func measure(s *spec, wl workload.Workload, seed uint64, tr func(testbed.TraceEvent), r *opResult) *testbed.System {
	a0 := readAlloc()
	t0 := cpuNow()
	cfg := wl.TestbedConfig(seed, s.warmup, s.duration)
	cfg.Trace = tr
	sys, err := testbed.New(cfg)
	t1 := cpuNow()
	r.newNS = t1 - t0
	if err != nil {
		r.failure = fmt.Sprintf("testbed.New: %v", err)
		return nil
	}
	r.res = sys.Run()
	r.runNS = cpuNow() - t1
	a1 := readAlloc()
	r.allocB, r.mallocs = a1.bytes-a0.bytes, a1.objects-a0.objects
	r.simMS = s.warmup + r.res.Window
	for _, n := range r.res.Nodes {
		for _, v := range n.Submissions {
			r.subs += v
		}
		for _, v := range n.Commits {
			r.commits += v
		}
	}
	if want := s.duration - s.warmup; r.res.Window < want {
		r.failure = fmt.Sprintf("stall: event queue drained at %.0f ms of a %.0f ms window", r.res.Window, want)
		return nil
	}
	if msg := checkResults(r.res); msg != "" {
		r.wrong = msg
		return nil
	}
	return sys
}

// checkResults verifies the invariants every measurement must satisfy:
// busy fractions within [0, 1] and throughput equal to commits over the
// window.
func checkResults(res testbed.Results) string {
	for i, n := range res.Nodes {
		for _, u := range []float64{n.CPUUtilization, n.DBDiskUtilization, n.LogDiskUtilization, n.TMUtilization} {
			if !(u >= 0 && u <= 1+1e-9) {
				return fmt.Sprintf("node %d: utilization %v outside [0, 1]", i, u)
			}
		}
		var commits int64
		for _, c := range n.Commits {
			commits += c
		}
		want := float64(commits) / res.Window * 1000
		if math.Abs(n.TotalTxnThroughput-want) > 1e-9*math.Max(1, want) {
			return fmt.Sprintf("node %d: TR-XPUT %v txn/s, but %d commits in %v ms", i, n.TotalTxnThroughput, commits, res.Window)
		}
	}
	return ""
}

// modelError is the mean over sites of |model − sim| / sim TR-XPUT.
func modelError(model *core.Result, res testbed.Results) float64 {
	var sum float64
	for i, n := range res.Nodes {
		pred := model.Sites[i].TotalTxnThroughput * 1000
		sum += math.Abs(pred-n.TotalTxnThroughput) / n.TotalTxnThroughput
	}
	return sum / float64(len(res.Nodes))
}

// sameMeasurement compares the facade's measurement with the benchmark's
// own run of the same configuration.
func sameMeasurement(m *carat.Measurement, res testbed.Results) error {
	if m.WindowMS != res.Window || m.NetMessages != res.NetMessages || m.NetUtilization != res.NetUtilization || len(m.Nodes) != len(res.Nodes) {
		return fmt.Errorf("facade window %v ms, %d messages, wire %v over %d nodes; benchmark %v ms, %d messages, wire %v over %d nodes",
			m.WindowMS, m.NetMessages, m.NetUtilization, len(m.Nodes), res.Window, res.NetMessages, res.NetUtilization, len(res.Nodes))
	}
	for i, n := range m.Nodes {
		if n.TxnPerSec != res.Nodes[i].TotalTxnThroughput || n.CPUUtilization != res.Nodes[i].CPUUtilization {
			return fmt.Errorf("node %d: facade %v txn/s at CPU %v, benchmark %v txn/s at CPU %v",
				i, n.TxnPerSec, n.CPUUtilization, res.Nodes[i].TotalTxnThroughput, res.Nodes[i].CPUUtilization)
		}
	}
	return nil
}
