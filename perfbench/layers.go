package main

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"

	"carat/internal/testbed"
)

// evCounter counts protocol events by kind through Config.Trace.
type evCounter [64]int64

func (c *evCounter) record(ev testbed.TraceEvent) {
	if k := int(ev.Ev); k >= 0 && k < len(c) {
		c[k]++
	}
}

func (c *evCounter) total() (n int64) {
	for _, v := range c {
		n += v
	}
	return n
}

// tracedKinds are the event kinds reported per simulated hour, by their
// trace names.
var tracedKinds = []testbed.TraceKind{
	testbed.EvLockWait, testbed.EvLockGrant, testbed.EvDeadlock, testbed.EvPrepareAck,
	testbed.EvCommitted, testbed.EvAborted, testbed.EvNetHop, testbed.EvReplicaApply,
	testbed.EvFailoverRead, testbed.EvValidationAbort, testbed.EvRetryBackoff, testbed.EvShed,
	testbed.EvCrash,
}

// profileLayers are the layers reported as host_pct metrics; the full
// attribution table lists every group.
var profileLayers = []string{"sim", "coro", "gc", "testbed", "lock", "cc", "stats", "wal", "comm", "core"}

// layers is the traced run. For a quarter of its rounds it alternates an
// untraced and a traced pass over the same round of operations: round 0
// supplies the deterministic figures (event counts, simulated statistics),
// every round the host-time figures. The remaining rounds run untraced
// under a CPU profile of the whole process, for the host time by layer.
// The two are kept apart because an active profiler makes the process CPU
// clock tick-granular.
func (b *bench) layers(outDir string) (map[string]metric, error) {
	b.digest = sha256.New()
	// The probes are small working sets on every workload, so they are
	// scaled by the small-table calibration whatever the workload's own is.
	ms := layerProbes(newSpeedometer(calibrate))
	b.checkIdentity()

	var (
		plain, traced [][]*opResult
		counts        [][]evCounter
		gcCycles      uint32
		forcedGCs     uint32 // the collection before every operation
		pauseNS       uint64
		passAlloc     uint64
		m0, m1        runtime.MemStats
	)
	// A quarter of the rounds in pairs of passes, then the rest profiled:
	// the run attempts the same operations as the untraced run (at least
	// one round of each).
	n := max(1, min(b.roundCount(b.seconds/4), b.roundCount(b.seconds)-1))
	for round := range n {
		runtime.ReadMemStats(&m0)
		plain = append(plain, b.runRound(round, nil))
		runtime.ReadMemStats(&m1)
		gcCycles += m1.NumGC - m0.NumGC
		forcedGCs += m1.NumForcedGC - m0.NumForcedGC
		pauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		passAlloc += m1.TotalAlloc - m0.TotalAlloc

		cs := make([]evCounter, len(b.s.cells))
		traced = append(traced, b.runRound(round, func(i int) func(testbed.TraceEvent) { return cs[i].record }))
		counts = append(counts, cs)
	}

	profPath := filepath.Join(outDir, b.s.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	profiled := max(1, b.roundCount(b.seconds)-n)
	for round := n; round < n+profiled; round++ {
		b.runRound(round, nil)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}

	// Tracing must not perturb the simulation.
	for i := range plain[0] {
		if fingerprint(plain[0][i]) != fingerprint(traced[0][i]) {
			msg := fmt.Sprintf("traced run of %s differs from the untraced run", b.s.cells[i].label)
			b.wrong = append(b.wrong, msg)
			fmt.Fprintln(b.w, "FAIL", msg)
		}
	}

	// Timed public calls and runtime counters over every untraced op.
	var solveMS, newMS, runMS []float64
	var allocB, mallocs, plainRunNS, tracedRunNS, events int64
	var hours float64
	for ri, ops := range plain {
		for i, r := range ops {
			if !r.ok() {
				continue
			}
			if r.solveNS > 0 {
				solveMS = append(solveMS, float64(r.solveNS)/1e6)
			}
			newMS = append(newMS, float64(r.newNS)/1e6)
			runMS = append(runMS, float64(r.runNS)/1e6)
			allocB += int64(r.allocB)
			mallocs += int64(r.mallocs)
			hours += r.simHours()
			if t := traced[ri][i]; t.ok() {
				plainRunNS += r.runNS
				tracedRunNS += t.runNS
				events += counts[ri][i].total()
			}
		}
	}
	ms["core.solve_ms"] = metric{median(solveMS), "ms"}
	ms["testbed.new_ms"] = metric{median(newMS), "ms"}
	ms["testbed.run_ms"] = metric{median(runMS), "ms"}
	ms["trace.overhead_pct"] = metric{100 * (ratio(float64(tracedRunNS), float64(plainRunNS)) - 1), "%"}
	ms["ev.host_ns"] = metric{ratio(float64(plainRunNS), float64(events)), "ns"}
	// GC cycles are driven by allocation volume, so the measured runs'
	// share of each pass's allocation carries their share of the cycles
	// the allocation triggered (on chaos-audit the pass also holds the
	// RunChaos call's own runs); the benchmark's forced collections are
	// not counted. The mean pause covers every collection.
	cyclesPerByte := ratio(float64(gcCycles-forcedGCs), float64(passAlloc))
	ms["gc.cycles_per_sim_hour"] = metric{cyclesPerByte * ratio(float64(allocB), hours), "1/sim-h"}
	ms["gc.pause_ms"] = metric{ratio(float64(pauseNS)/1e6, float64(gcCycles)), "ms"}
	ms["alloc.mallocs_per_sim_hour"] = metric{ratio(float64(mallocs), hours), "1/sim-h"}
	ms["ops_failed_frac"] = metric{ratio(float64(b.failed), float64(b.attempted)), "fraction"}

	// Deterministic figures from round 0.
	var ev evCounter
	var evHours float64
	for i, r := range traced[0] {
		if r.ok() {
			for k, v := range counts[0][i] {
				ev[k] += v
			}
			evHours += r.simHours()
		}
	}
	ms["ev.total"] = metric{ratio(float64(ev.total()), evHours), "1/sim-h"}
	for _, k := range tracedKinds {
		ms["ev."+k.String()] = metric{ratio(float64(ev[k]), evHours), "1/sim-h"}
	}
	for k, v := range simulatedSystem(plain[0]) {
		ms[k] = v
	}

	pf, err := os.Open(profPath)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	prof, err := decodeProfile(pf)
	if err != nil {
		return nil, err
	}
	a := attribute(prof)
	for _, g := range profileLayers {
		ms[g+".host_pct"] = metric{a.pct[g], "%"}
	}
	tbl := a.table(fmt.Sprintf("%s (seed %d, %d untraced rounds)", b.s.name, b.seed, profiled))
	fmt.Fprint(b.w, tbl)
	if err := os.WriteFile(filepath.Join(outDir, b.s.name+"-attribution.md"), []byte(tbl), 0o644); err != nil {
		return nil, err
	}
	return ms, nil
}

// simulatedSystem summarizes a round's successful operations: the modelled
// system's utilizations and delays from testbed.Results, the model's error
// and its solver iterations. All are deterministic per seed, and identical
// for any change that only speeds the simulator up.
func simulatedSystem(ops []*opResult) map[string]metric {
	var n float64
	var cpu, dsk, tm, wire, wireQ float64
	var lockW, lockN, admW, admN, respW, modelErr, nErr float64
	var subs, commits, iters, solves int64
	for _, r := range ops {
		if !r.ok() {
			continue
		}
		n++
		if r.iterations > 0 {
			iters += int64(r.iterations)
			solves++
		}
		var c, d, t float64
		for _, nr := range r.res.Nodes {
			c = math.Max(c, nr.CPUUtilization)
			d = math.Max(d, math.Max(nr.DBDiskUtilization, nr.LogDiskUtilization))
			t = math.Max(t, nr.TMUtilization)
			lockW += nr.MeanLockWait * float64(nr.LockWaits)
			lockN += float64(nr.LockWaits)
			admW += nr.MeanAdmitWaitMS * float64(nr.DelayedArrivals)
			admN += float64(nr.DelayedArrivals)
			// Sum in kind order: map order would vary the rounding.
			kinds := slices.Sorted(maps.Keys(nr.Commits))
			for _, k := range kinds {
				respW += nr.MeanResponse[k] * float64(nr.Commits[k])
			}
		}
		cpu, dsk, tm = cpu+c, dsk+d, tm+t
		wire += r.res.NetUtilization
		wireQ += r.res.NetMeanQueueMS
		subs += r.subs
		commits += r.commits
		if !math.IsNaN(r.modelErr) {
			modelErr += r.modelErr
			nErr++
		}
	}
	return map[string]metric{
		"cpu.util_max":               {ratio(cpu, n), "fraction"},
		"disk.util_max":              {ratio(dsk, n), "fraction"},
		"tm.util_max":                {ratio(tm, n), "fraction"},
		"wire.util":                  {ratio(wire, n), "fraction"},
		"wire.queue_ms":              {ratio(wireQ, n), "ms"},
		"lock.wait_ms":               {ratio(lockW, lockN), "ms"},
		"txn.submissions_per_commit": {ratio(float64(subs), float64(commits)), "count"},
		"txn.resp_ms_mean":           {ratio(respW, float64(commits)), "ms"},
		"admission.wait_ms":          {ratio(admW, admN), "ms"},
		"model_err_pct":              {100 * ratio(modelErr, nErr), "%"},
		"core.iterations":            {ratio(float64(iters), float64(solves)), "count"},
	}
}
