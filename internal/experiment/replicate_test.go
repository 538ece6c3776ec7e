package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carat/internal/workload"
)

// repOpts keeps replicated unit-test simulations short.
func repOpts(reps, workers int) SimOptions {
	o := quickOpts()
	o.Warmup = 10_000
	o.Duration = 120_000
	o.Replications = reps
	o.Workers = workers
	return o
}

func TestRepSeedScheme(t *testing.T) {
	const base = 424242
	if got := RepSeed(base, 8, 0); got != base {
		t.Fatalf("RepSeed(base, n, 0) = %d, want the base seed %d", got, base)
	}
	// Every (n, rep) pair must get a distinct seed.
	seen := map[uint64][2]int{}
	for _, n := range []int{4, 8, 12, 16, 20} {
		for rep := 1; rep < 8; rep++ {
			s := RepSeed(base, n, rep)
			if s == base {
				t.Fatalf("RepSeed(base, %d, %d) collides with the base seed", n, rep)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("RepSeed collision: (n=%d, rep=%d) and (n=%d, rep=%d) both map to %d",
					n, rep, prev[0], prev[1], s)
			}
			seen[s] = [2]int{n, rep}
		}
	}
}

// TestReplicationZeroMatchesSerialRun pins the compatibility guarantee:
// replication 0 of any point is byte-identical to the historical serial
// Run with the base seed.
func TestReplicationZeroMatchesSerialRun(t *testing.T) {
	opts := repOpts(3, 2)
	rc, err := RunReplicated(workload.MB4(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	serialOpts := opts
	serialOpts.Replications = 0
	c, err := Run(workload.MB4(8), serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc.First().Measured, c.Measured) {
		t.Fatal("replication 0 diverges from the serial Run with the same seed")
	}
}

// TestParallelSweepSmoke is the short -race smoke named in the verify
// recipe: a replicated sweep on several workers with basic sanity checks.
func TestParallelSweepSmoke(t *testing.T) {
	var calls []int
	opts := repOpts(2, 4)
	opts.Progress = func(done, total int) { calls = append(calls, done) }
	rcs, err := SweepReplicated(workload.MB4, []int{4, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcs) != 2 {
		t.Fatalf("points = %d, want 2", len(rcs))
	}
	for _, rc := range rcs {
		if len(rc.Reps) != 2 {
			t.Fatalf("n=%d: reps = %d, want 2", rc.N, len(rc.Reps))
		}
		model, est := rc.Estimate(TxnThroughput, 0)
		if model <= 0 || est.Mean <= 0 || est.Reps != 2 {
			t.Fatalf("n=%d: estimate %+v vs model %v", rc.N, est, model)
		}
		if est.HalfWidth < 0 {
			t.Fatalf("n=%d: negative CI half-width %v", rc.N, est.HalfWidth)
		}
	}
	if len(calls) != 4 || calls[len(calls)-1] != 4 {
		t.Fatalf("progress calls = %v, want monotone 1..4", calls)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress calls = %v, want monotone 1..4", calls)
		}
	}
}

func TestReplicatedFigureCarriesCI(t *testing.T) {
	f, err := Figure5([]int{4, 8}, repOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want model+simulation", len(f.Series))
	}
	model, meas := f.Series[0], f.Series[1]
	if model.CI != nil {
		t.Fatal("model series must not carry CIs")
	}
	if len(meas.CI) != 2 {
		t.Fatalf("simulation CI points = %d, want 2", len(meas.CI))
	}
	if !strings.Contains(f.ASCII(), "±") {
		t.Fatal("replicated figure rendering must show ± half-widths")
	}
}

func TestReplicatedTableCarriesCI(t *testing.T) {
	tb, err := Table3([]int{4}, repOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tb.Header, "|")
	if !strings.Contains(joined, "±") {
		t.Fatalf("replicated table header %v must have ± columns", tb.Header)
	}
	if !strings.Contains(tb.Title, "replications") {
		t.Fatalf("replicated table title %q must say so", tb.Title)
	}
}

// TestSerialFigureUnchanged pins that reps<=1 keeps the historical
// rendering byte-for-byte: no CI column, no ± characters.
func TestSerialFigureUnchanged(t *testing.T) {
	f, err := Figure5([]int{4}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if s.CI != nil {
			t.Fatalf("serial series %s must not carry CIs", s.Name)
		}
	}
	if strings.Contains(f.ASCII(), "±") {
		t.Fatal("serial figure rendering must not show ±")
	}
}

// TestWorkersRunConcurrently proves the pool genuinely overlaps jobs: all
// four replications rendezvous at a barrier inside the workload
// constructor, which only releases once every one of them is in flight.
// A pool that ran jobs one at a time would never release the barrier.
// (Wall-clock speedup itself is hardware-dependent — see the benchmark —
// but this property holds even on a single core.)
func TestWorkersRunConcurrently(t *testing.T) {
	const reps = 4
	release := make(chan struct{})
	arrived := make(chan struct{}, reps)
	var once sync.Once
	var calls atomic.Int32
	mk := func(n int) workload.Workload {
		// The first call is the serial model-solving pass; only the per-job
		// calls (one per replication, on the workers) join the barrier.
		if calls.Add(1) == 1 {
			return workload.MB4(n)
		}
		arrived <- struct{}{}
		if len(arrived) == reps {
			once.Do(func() { close(release) })
		}
		<-release
		return workload.MB4(n)
	}
	done := make(chan error, 1)
	go func() {
		opts := repOpts(reps, reps)
		_, err := SweepReplicated(mk, []int{4}, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep deadlocked at the barrier: workers are not running jobs concurrently")
	}
}

// BenchmarkSweepReplicated measures the parallel engine against the same
// grid on one worker; on an m-core machine the speedup approaches
// min(workers, m). Run with -bench SweepReplicated -benchtime 1x.
func BenchmarkSweepReplicated(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := SimOptions{Seed: 1, Warmup: 60_000, Duration: 1_060_000,
					Replications: 4, Workers: workers}
				if _, err := SweepReplicated(workload.MB4, []int{4, 8, 12, 16, 20}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
