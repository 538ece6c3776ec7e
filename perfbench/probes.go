package main

import (
	"carat/internal/cc"
	"carat/internal/cc/occ"
	"carat/internal/cc/quecc"
	"carat/internal/comm"
	"carat/internal/lock"
	"carat/internal/mva"
	"carat/internal/rng"
	"carat/internal/sim"
	"carat/internal/stats"
)

// Layer probes call one layer's public functions directly on a fixed input
// drawn from the probe's own fixed seed, so a probe's figure does not move
// with the workload seed. Each probe runs once to warm up, then probeReps
// times; it reports the median host time per operation, scaled to the
// reference speed like every other host time (see calibrate).

const probeReps = 5

// sink keeps the compiler from discarding probed computations.
var sink float64

func timeProbe(speed *speedometer, fn func() int) float64 {
	fn()
	per := make([]float64, probeReps)
	for i := range per {
		t0 := cpuNow()
		ops := fn()
		t := float64(cpuNow() - t0)
		speed.sample()
		per[i] = speed.scale(t) / float64(ops)
	}
	return median(per)
}

// holdDurations draws each process's exponential hold times up front, so
// the probe times the kernel rather than the generator.
func holdDurations(seed uint64, procs, holds int, mean float64) [][]float64 {
	r := rng.New(seed)
	d := make([][]float64, procs)
	for p := range d {
		d[p] = make([]float64, holds)
		for i := range d[p] {
			d[p][i] = r.Exp(mean)
		}
	}
	return d
}

// probeEvents runs procs processes that each alternate a hold with a
// Resource.Use on a shared pool of servers: ns per Hold or Use call.
func probeEvents(seed uint64, procs, holds, servers int) func() int {
	think := holdDurations(seed, procs, holds, 100)
	service := holdDurations(seed+1, procs, holds, 10)
	return func() int {
		env := sim.NewEnv()
		res := sim.NewResource(env, "pool", servers)
		for p := 0; p < procs; p++ {
			env.Spawn("p", func(proc *sim.Proc) {
				for i := 0; i < holds; i++ {
					proc.Hold(think[p][i])
					if err := res.Use(proc, service[p][i]); err != nil {
						panic(err)
					}
				}
			})
		}
		env.RunAll()
		return 2 * procs * holds
	}
}

// probeUseFree times uncontended Resource.Use: one process, one server,
// nothing else pending.
func probeUseFree(n int) func() int {
	return func() int {
		env := sim.NewEnv()
		res := sim.NewResource(env, "cpu", 1)
		env.Spawn("p", func(proc *sim.Proc) {
			for i := 0; i < n; i++ {
				if err := res.Use(proc, 1); err != nil {
					panic(err)
				}
			}
		})
		env.RunAll()
		return n
	}
}

// txnAccesses draws txns transactions of 8 accesses each over a 3000-block
// site (the paper's database size), half of them writes.
type access struct {
	g     int
	write bool
}

func txnAccesses(seed uint64, txns int) [][]access {
	r := rng.New(seed)
	out := make([][]access, txns)
	for t := range out {
		for _, g := range r.SampleInts(3000, 8) {
			out[t] = append(out[t], access{g: g, write: r.Bool(0.5)})
		}
	}
	return out
}

// probeLock times lock.Manager.Request on the uncontended grant path, one
// transaction at a time, each released before the next begins.
func probeLock(txns [][]access) func() int {
	return func() int {
		m := lock.NewManager(lock.VictimRequester, nil)
		n := 0
		for t, accs := range txns {
			id := lock.TxnID(t + 1)
			for _, a := range accs {
				mode := lock.Shared
				if a.write {
					mode = lock.Exclusive
				}
				if out, _ := m.Request(id, lock.GranuleID(a.g), mode); out != lock.Granted {
					panic("perfbench: uncontended lock request not granted")
				}
				n++
			}
			m.ReleaseAll(id)
		}
		return n
	}
}

// probeCC times a paradigm's full per-access protocol: Begin, the
// accesses, commit validation and Finish, amortized per access.
func probeCC(txns [][]access, mk func() cc.Protocol, plan func(p cc.Protocol, id cc.TxnID, accs []access)) func() int {
	return func() int {
		p := mk()
		n := 0
		for t, accs := range txns {
			id := cc.TxnID(t + 1)
			if plan != nil {
				plan(p, id, accs)
			}
			p.Begin(id, int64(t+1))
			for _, a := range accs {
				if d := p.Access(id, cc.GranuleID(a.g), a.write); d.Outcome != cc.Grant {
					panic("perfbench: uncontended access not granted")
				}
				n++
			}
			if !p.Validate(id) {
				panic("perfbench: uncontended validation failed")
			}
			p.Finish(id)
		}
		return n
	}
}

func queccPlan(p cc.Protocol, id cc.TxnID, accs []access) {
	s := p.(*quecc.Scheduler)
	for _, a := range accs {
		s.Plan(id, cc.GranuleID(a.g), a.write)
	}
}

// probeBreakdown times the 128-host scale fabric's delay decomposition
// over a fixed spread of message sizes and wire utilizations.
func probeBreakdown(seed uint64, n int) func() int {
	e := comm.Ethernet{BandwidthBitsPerMS: 2.94e3, SlotTime: 0.0512, Propagation: 0.01, Hosts: 128}
	r := rng.New(seed)
	bytes := make([]int, n)
	util := make([]float64, n)
	for i := range bytes {
		bytes[i] = 64 + r.Intn(1024)
		util[i] = r.Float64()
	}
	return func() int {
		var s float64
		for i := range bytes {
			raw, infl, q := e.Breakdown(bytes[i], util[i])
			s += raw + infl + q
		}
		sink += s
		return n
	}
}

func probeTally(seed uint64, n int) func() int {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Exp(100)
	}
	return func() int {
		var t stats.Tally
		for _, x := range xs {
			t.Add(x)
		}
		sink += t.Mean()
		return n
	}
}

// probeMVA solves a two-site network shaped like the paper's: CPU, database
// disk and log disk per site plus a network delay, with three chains of 8,
// 4 and 4 customers.
func probeMVA(solves int) func() int {
	net := &mva.Network{
		Kinds: []mva.CenterKind{mva.Queueing, mva.Queueing, mva.Queueing, mva.Queueing, mva.Queueing, mva.Queueing, mva.Delay},
		Demands: [][]float64{
			{120, 60, 40}, {280, 140, 90}, {30, 20, 10},
			{60, 120, 40}, {140, 280, 90}, {20, 30, 10},
			{5, 10, 10},
		},
		Populations: []int{8, 4, 4},
	}
	return func() int {
		for i := 0; i < solves; i++ {
			sol, err := mva.SolveExact(net)
			if err != nil {
				panic(err)
			}
			sink += sol.Throughput[0]
		}
		return solves
	}
}

// layerProbes runs every probe and returns its metrics.
func layerProbes(speed *speedometer) map[string]metric {
	txns := txnAccesses(5, 2000)
	out := map[string]metric{
		"sim.event_ns.small": {timeProbe(speed, probeEvents(1, 16, 2000, 4)), "ns"},
		"sim.event_ns.large": {timeProbe(speed, probeEvents(2, 4096, 8, 64)), "ns"},
		"sim.use_ns.free":    {timeProbe(speed, probeUseFree(100_000)), "ns"},
		"lock.request_ns":    {timeProbe(speed, probeLock(txns)), "ns"},
		"cc.access_ns.2pl": {timeProbe(speed, probeCC(txns, func() cc.Protocol {
			return cc.ForLockManager(lock.NewManager(lock.VictimRequester, nil), cc.TwoPhaseDetect)
		}, nil)), "ns"},
		"cc.access_ns.occ":   {timeProbe(speed, probeCC(txns, func() cc.Protocol { return occ.NewManager() }, nil)), "ns"},
		"cc.access_ns.quecc": {timeProbe(speed, probeCC(txns, func() cc.Protocol { return quecc.NewScheduler(func(cc.TxnID) {}) }, queccPlan)), "ns"},
		"comm.breakdown_ns":  {timeProbe(speed, probeBreakdown(6, 200_000)), "ns"},
		"stats.tally_add_ns": {timeProbe(speed, probeTally(7, 200_000)), "ns"},
	}
	out["mva.solve_us"] = metric{timeProbe(speed, probeMVA(20)) / 1000, "us"}
	return out
}
