package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// runGrid is the one worker pool behind every sweep: it runs cells
// independent simulations, run(0) … run(cells-1), on at most workers
// goroutines (0 means GOMAXPROCS) and returns their results in cell order.
//
// Every cell builds its own workload, testbed.System and sim.Env inside run,
// on the worker, so concurrent cells share nothing mutable; each cell's seed
// is fixed by its index, and its result lands in its own slot, so the output
// is bit-identical for any worker count. The sweeps run every replication-0
// cell with opts.Seed itself (common random numbers: grid points differ only
// in their configuration, never in their random stream), and replication
// r > 0 of a point with RepSeed.
//
// progress, when non-nil, is called after each completed cell with the
// completed and total counts; calls are serialized. With one worker (or one
// cell) everything runs on the caller's goroutine.
//
// Failures are deterministic too. The result is the lowest-index failing
// cell's error, whatever the worker count: a worker skips a cell only when a
// lower-index cell has already failed, so every cell below the first failure
// runs, and so does the first failure itself. A panic inside a cell counts as
// that cell's failure and is re-raised on the caller's goroutine, naming the
// cell, rather than killing the process from a worker.
func runGrid(cells, workers int, progress func(done, total int), run func(i int) (testbed.Results, error)) ([]testbed.Results, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cells)
	out := make([]testbed.Results, cells)
	errs := make([]error, cells)
	var (
		mu     sync.Mutex // guards next, done, failed and errs; serializes progress
		next   int        // the next cell to hand out
		done   int
		failed = cells // the lowest failing cell so far
	)
	work := func() {
		for {
			mu.Lock()
			i := next
			next++
			skip := failed < i
			mu.Unlock()
			if i >= cells {
				return
			}
			if skip {
				continue
			}
			res, err := runCell(run, i)
			mu.Lock()
			if err != nil {
				errs[i] = err
				failed = min(failed, i)
			} else {
				out[i] = res
				done++
				if progress != nil {
					progress(done, cells)
				}
			}
			mu.Unlock()
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if failed < cells {
		if p, ok := errs[failed].(cellPanic); ok {
			panic(p)
		}
		return nil, errs[failed]
	}
	return out, nil
}

// cellPanic carries a panic out of a grid cell to the caller's goroutine.
type cellPanic struct {
	cell  int
	value any
}

func (p cellPanic) Error() string {
	return fmt.Sprintf("experiment: grid cell %d panicked: %v", p.cell, p.value)
}

// runCell runs one cell, converting a panic into a cellPanic error.
func runCell(run func(i int) (testbed.Results, error), i int) (res testbed.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = cellPanic{cell: i, value: p}
		}
	}()
	return run(i)
}

// simulate builds and runs one testbed for the workload at the seed, naming
// the cell in a construction error. A run that measures less than its
// configured window is an error too (testbed.System.CheckWindow).
func simulate(wl workload.Workload, seed uint64, opts SimOptions, cell string) (testbed.Results, error) {
	sys, err := testbed.New(wl.TestbedConfig(seed, opts.Warmup, opts.Duration))
	if err != nil {
		return testbed.Results{}, fmt.Errorf("experiment: %s: %w", cell, err)
	}
	res := sys.Run()
	if err := sys.CheckWindow(res); err != nil {
		return testbed.Results{}, fmt.Errorf("experiment: %s: %w", cell, err)
	}
	return res, nil
}

// commitTotals sums submissions and commits over every site and transaction
// kind, with the commit-weighted mean response time in ms (0 without
// commits). Kinds are visited in the fixed order LRO, LU, DRO, DU, never in
// map order, so the float sum is the same bits on every call.
func commitTotals(res testbed.Results) (subs, commits int64, meanResponseMS float64) {
	var weighted float64
	for _, nr := range res.Nodes {
		for _, k := range testbed.TxnKinds {
			subs += nr.Submissions[k]
			commits += nr.Commits[k]
			weighted += nr.MeanResponse[k] * float64(nr.Commits[k])
		}
	}
	if commits > 0 {
		meanResponseMS = weighted / float64(commits)
	}
	return subs, commits, meanResponseMS
}
