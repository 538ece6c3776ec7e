// Command perfbench is the repository's benchmark. It drives the carat
// simulator through three named workloads from one process, one operation
// (one simulation cell) at a time with a single worker: a closed loop with
// one client.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it makes the traced run that yields the per-layer metrics: a
// CPU profile grouped by layer, the timed public calls, runtime counters,
// protocol events counted through Config.Trace, the simulated system's
// statistics and the layer probes. Every operation's output is checked;
// failed operations are counted, never fatal, and each prints a replay
// line. The last line of standard output is the JSON result. See
// perfbench/README.md for the metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"carat/internal/rng"
	"carat/internal/testbed"
)

// outDir receives the traced run's CPU profiles and attribution tables,
// inside the build directory that run.sh keeps out of version control.
const outDir = ".bench_build/perfbench-out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "paper-grid, scale-fleet, chaos-audit, or all (each in turn)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the measured rounds per workload, in seconds at the reference pace")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics untraced; 1 makes the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	todo := specs
	if *name != "all" {
		s, err := specByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		todo = []*spec{s}
	}
	if *trace == 1 {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range todo {
		b := &bench{s: s, seed: *seed, seconds: *seconds, w: stdout, speed: newSpeedometer(s.calibrate)}
		fmt.Fprintf(stdout, "== %s: seed %d, %g s, trace %d, %d cells per round\n", s.name, *seed, *seconds, *trace, len(s.cells))
		var ms map[string]metric
		var err error
		if *trace == 0 {
			ms = b.endToEnd()
		} else {
			ms, err = b.layers(outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
		printMetrics(stdout, s.name, ms)
		fmt.Fprintf(stdout, "digest %s seed=%d first-round ops=%d sha256=%x\n", s.name, *seed, len(s.cells), b.digest.Sum(nil))
		fmt.Fprintf(stdout, "ops %s attempted=%d failed=%d\n", s.name, b.attempted, b.failed)
		total.Correct = total.Correct && len(b.wrong) == 0
		total.Attempted += b.attempted
		total.Failed += b.failed
		for k, v := range ms {
			if len(todo) > 1 {
				k = s.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %-28s %14.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

// bench runs one workload and keeps its operation accounting.
type bench struct {
	s       *spec
	seed    uint64
	seconds float64
	w       io.Writer

	attempted, failed int
	wrong             []string  // output-check failures: the result is not correct
	digest            hash.Hash // simulated outputs of the first round
	speed             *speedometer
}

// poolSeed seeds the simulations of every run, whatever its --seed. A run
// of a given length therefore attempts the same operations, and meets the
// same failures, as every other run of that length; --seed sets the order
// in which each round runs them.
const poolSeed = 1

// opSeed derives operation i's simulation seed.
func (b *bench) opSeed(i int) uint64 {
	if s := rng.SeedStream(poolSeed, uint64(i)); s != 0 {
		return s
	}
	return 1 // the facade reads seed 0 as "default"
}

// attempt runs one operation and scales its host times to the reference
// speed (see speedometer). Each operation starts from a collected heap, so
// the collection work its host time includes is for its own garbage, not
// for what earlier operations left behind.
func (b *bench) attempt(c cell, seed uint64, tr func(testbed.TraceEvent)) *opResult {
	runtime.GC()
	r := b.exec(c, seed, tr)
	b.speed.sample()
	for _, t := range []*int64{&r.opNS, &r.solveNS, &r.newNS, &r.runNS} {
		*t = int64(b.speed.scale(float64(*t)))
	}
	return r
}

// exec runs one operation; a panic anywhere below is a failed operation.
func (b *bench) exec(c cell, seed uint64, tr func(testbed.TraceEvent)) (r *opResult) {
	defer func() {
		if p := recover(); p != nil {
			r = &opResult{failure: fmt.Sprintf("panic: %v", p), modelErr: math.NaN()}
		}
	}()
	return b.s.exec(b.s, c, seed, tr)
}

// record counts one operation's outcome and prints a replay line for a
// failure.
func (b *bench) record(c cell, seed uint64, r *opResult) {
	b.attempted++
	if r.ok() {
		return
	}
	b.failed++
	reason := r.failure
	if r.wrong != "" {
		reason = "wrong output: " + r.wrong
		b.wrong = append(b.wrong, reason)
	}
	fmt.Fprintf(b.w, "FAIL workload=%s cell=%s seed=%d reason=%q replay: %s\n", b.s.name, c.label, seed, reason, b.s.replay(b.s, c, seed))
}

// fingerprint renders every simulated output of an operation.
func fingerprint(r *opResult) string {
	return fmt.Sprintf("%s|%s|%+v|%+v", r.failure, r.wrong, r.res, r.chaos)
}

// checkIdentity runs the first operation twice with the same seed, and
// once more through the public facade: any difference is a failed,
// incorrect operation. The runs also warm caches before timing starts.
func (b *bench) checkIdentity() {
	c, seed := b.s.cells[0], b.opSeed(0)
	first := b.attempt(c, seed, nil)
	again := b.attempt(c, seed, nil)
	r := &opResult{}
	if fingerprint(first) != fingerprint(again) {
		r.wrong = "same-seed repeat differs"
	} else if first.ok() {
		if err := b.s.facade(b.s, c, seed, first); err != nil {
			r.wrong = "public facade differs: " + err.Error()
		}
	}
	b.record(c, seed, r)
}

// roundCount is how many rounds a run of seconds holds: the spec's
// reference pace turned into a fixed count, so that the work a run does
// depends on its length only, never on how fast the machine is that day.
func (b *bench) roundCount(seconds float64) int {
	return max(1, int(math.Round(seconds/b.s.roundS)))
}

// runRound executes one rotation with round-specific seeds, in an order
// drawn from the run's seed, recording every operation; round 0's outputs
// feed the digest, in rotation order.
func (b *bench) runRound(round int, tr func(int) func(testbed.TraceEvent)) []*opResult {
	out := make([]*opResult, len(b.s.cells))
	for _, i := range rng.New(rng.SeedStream(b.seed, uint64(round))).Perm(len(b.s.cells)) {
		c, seed := b.s.cells[i], b.opSeed(round*len(b.s.cells)+i)
		var t func(testbed.TraceEvent)
		if tr != nil {
			t = tr(i)
		}
		out[i] = b.attempt(c, seed, t)
		if tr == nil {
			b.record(c, seed, out[i])
		}
	}
	for i, c := range b.s.cells {
		if tr == nil && round == 0 {
			fmt.Fprintf(b.digest, "%s|%d|%s\n", c.label, b.opSeed(i), fingerprint(out[i]))
		}
		if round > 0 {
			out[i].res, out[i].chaos = testbed.Results{}, nil
		}
	}
	return out
}

// setUpReps is how many times setUp measures the rotation's set-up.
const setUpReps = 15

// setUp is the workload's set-up time: building every cell's config and
// system with testbed.New, as one rotation of operations does (the chaos
// cells as their audits' fault-free baselines). A repetition builds the
// rotation setUpBuilds times from a collected heap, long enough to time
// well; setUp returns the median repetition's time per rotation. Builds
// are timed on their own thread, so a collection running on another
// thread cannot swamp them; New starts no process coroutine, so the
// goroutine stays on its locked thread.
func (b *bench) setUp() float64 {
	reps := make([]float64, setUpReps)
	for rep := range reps {
		runtime.GC()
		var ns int64
		for k := 0; k < b.s.setUpBuilds; k++ {
			for i, c := range b.s.cells {
				runtime.LockOSThread()
				t0 := threadCPUNow()
				sys, err := testbed.New(c.wl.TestbedConfig(b.opSeed(i), b.s.warmup, b.s.duration))
				ns += threadCPUNow() - t0
				runtime.UnlockOSThread()
				if err == nil { // a failing build fails every operation of the cell, which reports it
					sys.Env().Shutdown()
				}
			}
		}
		b.speed.sample()
		reps[rep] = b.speed.scale(float64(ns)) / 1e9 / float64(b.s.setUpBuilds)
	}
	return median(reps)
}

// endToEnd is the untraced run: the metrics a user of the simulator sees.
// Each per-cell figure is the median over the rounds (each round simulates
// new seeds), so one slow or unusual operation moves nothing; a workload
// figure sums the cells' medians, weighting every cell of the rotation
// equally.
func (b *bench) endToEnd() map[string]metric {
	b.digest = sha256.New()
	b.checkIdentity()
	var all [][]*opResult
	n := b.roundCount(b.seconds)
	for round := range n {
		all = append(all, b.runRound(round, nil))
	}
	rss := maxRSSMB() - calTablesMB() // the operations' peak, before set-up's own garbage
	setup := b.setUp()

	var runS, hours, subs, allocMB float64
	var opMS []float64
	for c := range b.s.cells {
		var runC, hoursC, subsC, allocC []float64
		for _, ops := range all {
			r := ops[c]
			if !r.ok() {
				continue
			}
			runC = append(runC, float64(r.runNS)/1e9)
			hoursC = append(hoursC, r.simHours())
			subsC = append(subsC, float64(r.subs))
			allocC = append(allocC, float64(r.allocB)/(1<<20))
			opMS = append(opMS, float64(r.opNS)/1e6)
		}
		runS += median(runC)
		hours += median(hoursC)
		subs += median(subsC)
		allocMB += median(allocC)
	}
	fmt.Fprintf(b.w, "%s: %d rounds, %d successful ops (op_ms percentiles over these)\n", b.s.name, n, len(opMS))
	return map[string]metric{
		"setup_s":               {setup, "s"},
		"host_s_per_sim_hour":   {ratio(runS, hours), "s/sim-h"},
		"sim_txn_per_host_s":    {ratio(subs, runS), "1/s"},
		"op_ms_p50":             {quantile(opMS, 0.5), "ms"},
		"op_ms_p90":             {quantile(opMS, 0.9), "ms"},
		"alloc_mb_per_sim_hour": {ratio(allocMB, hours), "MB/sim-h"},
		"max_rss_mb":            {rss, "MB"},
	}
}
