package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"carat/internal/cc"
	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// probeLossMB4 is MB4 with probe loss, message faults and the full
// resilience stack active: the retransmission timers and the backoff
// jitter stream must not leak state across concurrent simulations.
func probeLossMB4(n int) workload.Workload {
	wl := workload.MB4(n)
	wl.Faults = &testbed.FaultPlan{
		MsgLossProb:       0.05,
		ProbeLossProb:     0.5,
		LockWaitTimeoutMS: 8_000,
	}
	wl.Resilience = testbed.Resilience{
		Retry:        testbed.RetryPolicy{MaxAttempts: 5, BaseBackoffMS: 10, JitterFrac: 0.4},
		Admission:    testbed.AdmissionPolicy{MaxMPL: 3},
		ProbeRetryMS: 300,
	}
	return wl
}

// requireSameAcrossWorkers runs one sweep at each worker count and fails
// unless every result is bit-identical to the first; it returns the first.
func requireSameAcrossWorkers(t *testing.T, workers []int, run func(t *testing.T, workers int) any) any {
	t.Helper()
	one := run(t, workers[0])
	for _, w := range workers[1:] {
		if other := run(t, w); !reflect.DeepEqual(one, other) {
			t.Fatalf("results differ between %d and %d workers:\n%+v\nvs\n%+v", workers[0], w, one, other)
		}
	}
	return one
}

// TestSweepsDeterministicAcrossWorkerCounts is the determinism-under-
// concurrency guarantee for every sweep: the same (seed, grid) gives
// bit-identical output on 1 and 4 workers. The capacity, CC and scale
// sweeps' own tests add 3 and 8 workers. The SweepReplicated rows also
// cover the workload configurations with their own per-run state — faults
// (every replication's config holds the same *FaultPlan, so validating it
// concurrently would race under -race), scheduled partitions, R=2 quorum
// replication, and probe retransmission.
func TestSweepsDeterministicAcrossWorkerCounts(t *testing.T) {
	sweep := func(mk func(int) workload.Workload, ns []int, reps int) func(*testing.T, int) any {
		return func(t *testing.T, workers int) any {
			rcs, err := SweepReplicated(mk, ns, repOpts(reps, workers))
			if err != nil {
				t.Fatal(err)
			}
			return rcs
		}
	}
	faults := testbed.FaultPlan{CrashMTTRMS: 2_000, PrepareTimeoutMS: 4_000, LockWaitTimeoutMS: 8_000}
	rows := []struct {
		name  string
		run   func(t *testing.T, workers int) any
		check func(t *testing.T, out any)
	}{
		{name: "SweepReplicated", run: sweep(workload.MB4, []int{4, 8}, 3)},
		{name: "SweepReplicatedFaulty", run: sweep(faultyMB4, []int{4, 8}, 3)},
		{name: "SweepReplicatedPartitioned", run: sweep(partitionMB4, []int{4, 8}, 3)},
		{name: "SweepReplicatedQuorum", run: sweep(replicatedMB4, []int{4, 8}, 3)},
		{
			name: "SweepReplicatedProbeRetransmission",
			run:  sweep(probeLossMB4, []int{8}, 4),
			check: func(t *testing.T, out any) {
				var resent int64
				for _, rc := range out.([]*RepComparison) {
					for _, rep := range rc.Reps {
						for _, nd := range rep.Nodes {
							resent += nd.ProbesResent
						}
					}
				}
				if resent == 0 {
					t.Fatal("ProbesResent = 0 across the sweep: retransmission never engaged")
				}
			},
		},
		{name: "CapacitySweep", run: capacitySweepAt},
		{name: "CCSweep", run: ccSweepAt},
		{name: "ScaleSweep", run: scaleSweepAt},
		{name: "FailureSweep", run: func(t *testing.T, workers int) any {
			pts, err := FailureSweep(workload.MB4(8), []float64{0, 30_000, 60_000}, faults, repOpts(1, workers))
			if err != nil {
				t.Fatal(err)
			}
			return pts
		}},
		{name: "PartitionSweep", run: func(t *testing.T, workers int) any {
			pts, err := PartitionSweep(workload.MB4(8), []float64{0, 20_000}, []int{1, 2}, faults, repOpts(1, workers))
			if err != nil {
				t.Fatal(err)
			}
			return pts
		}},
		{name: "ReplicationSweep", run: func(t *testing.T, workers int) any {
			plan := testbed.FaultPlan{Crashes: []testbed.SiteCrash{{Site: 1, AtMS: 30_000, DownForMS: 40_000}}}
			pts, err := ReplicationSweep(workload.MB4(8), []int{1, 2}, []repl.ReadMode{repl.ReadOne, repl.ReadQuorum}, plan, repOpts(1, workers))
			if err != nil {
				t.Fatal(err)
			}
			return pts
		}},
		{name: "RunChaos", run: func(t *testing.T, workers int) any {
			wl := workload.MB4(8)
			wl.Replication = repl.Policy{Factor: 2}
			opts := chaosOpts(4)
			opts.Partitions = true
			report, err := runChaos(wl, opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			return report
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			one := requireSameAcrossWorkers(t, []int{1, 4}, row.run)
			if row.check != nil {
				row.check(t, one)
			}
		})
	}
}

// TestRunGridReturnsLowestIndexError pins deterministic failure: with two
// failing cells, the grid reports the lower-index cell's error at any
// worker count, even when the higher-index cell fails first in wall time.
func TestRunGridReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cell4Failed := make(chan struct{})
		_, err := runGrid(6, workers, nil, func(i int) (testbed.Results, error) {
			switch i {
			case 2:
				if workers > 1 {
					<-cell4Failed // fail only after cell 4 has
				}
				return testbed.Results{}, errors.New("cell 2 failed")
			case 4:
				close(cell4Failed)
				return testbed.Results{}, errors.New("cell 4 failed")
			}
			return testbed.Results{}, nil
		})
		if err == nil || err.Error() != "cell 2 failed" {
			t.Fatalf("workers=%d: error %v, want cell 2's", workers, err)
		}
	}
}

// TestRunGridPanicReachesCaller pins that a panic inside a cell is re-raised
// on the caller's goroutine, naming the cell, instead of killing the
// process from a worker goroutine.
func TestRunGridPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := func() (p any) {
			defer func() { p = recover() }()
			runGrid(4, workers, nil, func(i int) (testbed.Results, error) {
				if i == 1 {
					panic("boom")
				}
				return testbed.Results{}, nil
			})
			return nil
		}()
		if msg := fmt.Sprint(got); !strings.Contains(msg, "grid cell 1") || !strings.Contains(msg, "boom") {
			t.Fatalf("workers=%d: recovered %v, want a panic naming cell 1", workers, got)
		}
	}
}

// TestReducersBitIdentical pins that every sweep reducer is a pure function
// of its Results, down to the last bit: float sums over per-kind or
// per-cause maps must not follow Go's randomized map order.
func TestReducersBitIdentical(t *testing.T) {
	node := testbed.NodeResults{
		Submissions: map[testbed.TxnKind]int64{testbed.LRO: 5, testbed.LU: 9, testbed.DRO: 12, testbed.DU: 15},
		Commits:     map[testbed.TxnKind]int64{testbed.LRO: 3, testbed.LU: 7, testbed.DRO: 11, testbed.DU: 13},
		MeanResponse: map[testbed.TxnKind]float64{
			testbed.LRO: 0.1, testbed.LU: 1e15, testbed.DRO: 0.3, testbed.DU: 0.7,
		},
		Abandoned: map[testbed.AbortCause]int64{
			testbed.CauseDeadlock: 1, testbed.CauseCrash: 7, testbed.CauseTimeout: 3,
		},
	}
	res := testbed.Results{Window: 7_000, Nodes: []testbed.NodeResults{node, node}}
	reducers := map[string]func() any{
		"capacityPoint": func() any { return capacityPoint(1, []testbed.Results{res}) },
		"ccSweepPoint":  func() any { return ccSweepPoint(cc.TwoPhaseDetect, "uniform", 1, res) },
		"scalePoint":    func() any { return scalePoint(4, 0.5, 1, res) },
		"faultPoint":    func() any { return faultPoint(faultCell{policy: repl.Policy{Factor: 2}}, res) },
	}
	for name, reduce := range reducers {
		first := reduce()
		for i := 0; i < 200; i++ {
			if got := reduce(); !reflect.DeepEqual(got, first) {
				t.Errorf("%s: call %d gave %+v, first call %+v", name, i, got, first)
				break
			}
		}
	}
}

// TestSimulateRejectsWedgedRun pins that a run which measures less than its
// configured window is an error out of simulate, the run path of every
// sweep, naming the cell and both windows. The closed three-site mix with a
// one-slot DM pool wedges in warm-up and measures a zero window.
func TestSimulateRejectsWedgedRun(t *testing.T) {
	wl := threeNodeMB(8)
	wl.DMServers = 1
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 60_000
	_, err := simulate(wl, opts.Seed, opts, "wedge cell")
	if err == nil {
		t.Fatal("a wedged run returned no error")
	}
	for _, want := range []string{"wedge cell", "0 ms window", "50000 ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if _, err := ReplicationSweep(wl, []int{1}, nil, testbed.FaultPlan{}, opts); err == nil {
		t.Fatal("a sweep over a wedged cell returned no error")
	}
}
