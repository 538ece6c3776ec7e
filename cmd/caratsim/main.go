// Command caratsim runs the CARAT testbed simulator — the reproduction's
// stand-in for the paper's two VAX 11/780s — and prints the measured
// performance.
//
// Usage:
//
//	caratsim [-workload MB4] [-n 8] [-seed 1] [-minutes 60] [-logdisk] ...
//	caratsim -workload MB4 -sweep -reps 8 -workers 4   # mean ±95% CI per point
//	caratsim -workload MB4 -faults 'crash=1@60000+10000,lockto=5000'
//	caratsim -workload MB4 -chaos 20   # randomized fault audit, 20 runs
//	caratsim -workload MB8 -open -lambda 0.8            # open Poisson arrivals
//	caratsim -workload MB8 -lambdas 0.5,0.8,1.0,1.4 -resilience mpl=8  # capacity sweep
//	caratsim -cc quecc -workload MB4 -n 8                # deterministic execution
//	caratsim -ccsweep 1,2,4 -minutes 10                  # 2PL vs QueCC vs OCC lab
//	caratsim -sites 64 -placement hash -lambda 0.5       # one 64-site scale run
//	caratsim -scalesweep 0.5,1.0 -minutes 10             # 16/64/128-site scale-out study
//	caratsim -trace -txn 17 -minutes 0.5                 # one run's protocol event stream
//
// Every mode that runs one configuration — a single run, -sweep, -reps,
// -lambdas, -chaos, a scale run and -trace — builds its workload in one
// place from the same flags, applied in one order: shape, access pattern,
// -cc, -faults/-partition/-graysites, -resilience, -repl, open arrivals.
// A flag the selected mode cannot honour is an error that names both,
// never silently ignored: -chaos draws its own fault plan and resilience
// policy per run; a scale fleet is generated and already open, so it
// takes no -workload, -n, -sweep or open-shaping flag (-open, -classes,
// -burst*, -ramp, -lambdas); the open-shaping flags otherwise need -open
// or -lambdas; and -ccsweep and -scalesweep run their own fixed grids.
//
// The -sites, -placement and -locality flags select a generated N-site
// scale configuration (carat.NewScaleConfig) instead of a named workload:
// a homogeneous fleet whose granule space is mapped onto home sites by the
// placement directory (hash = uniform striping, range = contiguous shards,
// locality = range shards with a home-shard affinity fraction from
// -locality), every inter-site message riding a shared contended Ethernet
// fabric, and open arrivals at -lambda transactions/s per site. Unknown
// strategies and site counts outside [2, 512] are rejected with the valid
// values. With -scalesweep L1,L2,... the tool instead runs the full
// scale-out study — every -sites count crossed with every -locality level
// and every per-site rate — and prints the bottleneck-migration table:
// per-cell throughput, the maximum CPU/disk/TM utilization over the sites,
// the shared wire's utilization with its per-message contention inflation
// and queueing delay, and which center binds.
//
// The -cc flag selects the concurrency-control paradigm
// (case-insensitive): 2PL (deadlock detection, the paper's scheme),
// wait-die, wound-wait, timestamp-ordering, occ (optimistic, backward
// validation at commit) or quecc (deterministic queue-ordered execution).
// Unknown names are rejected with the valid list. With -ccsweep M1,M2,...
// the tool instead runs the comparison lab: the default protocol trio
// (2PL, QueCC, OCC) crossed with three contention levels (uniform, 80/20
// hotspot, zipf-0.99) and the given MPL multipliers (8m users per cell),
// reporting throughput, abort rate and paradigm-specific counters.
//
// With -open the simulator runs an open workload: transactions arrive in
// per-site Poisson streams at -lambda arrivals/s system-wide instead of
// being resubmitted by the closed terminals (which are removed). The mix
// defaults to one class per transaction type; -classes overrides it (see
// carat.ParseOpenClasses), -burstfactor/-burston/-burstoff modulate the
// rate with on-off bursts, and -ramp 'AT:RATE,AT:RATE,...' (ms:arrivals/s)
// replaces the constant rate with a piecewise-linear schedule.
//
// With -lambdas L1,L2,... the tool instead runs a capacity sweep: one open
// simulation per offered rate, reporting committed throughput and response
// percentiles per point, the saturation knee, and the closed model's
// bottleneck bound 1/D_max (Section 4) for comparison.
//
// The -pattern flag selects the record-access pattern (uniform, the
// paper's assumption; hotspot, the b–c rule shaped by -hot/-hotfrac; zipf,
// shaped by -zipftheta).
//
// The -faults argument is a comma-separated list of key=value settings:
// explicit crashes (crash=SITE@AT+DOWN, repeatable), a random crash
// process, message loss and extra delay, protocol timeouts, deadlock-probe
// loss and the fault seed. carat.ParseFaultPlan lists every key with its
// default.
//
// The -partition argument schedules network partitions (semicolon-
// separated; see carat.ParsePartitions). Each entry is either a split
// GROUPS@AT+HEAL — |-separated site lists, e.g. '0,1|2,3@60000+20000'
// splits sites {0,1} from {2,3} at t=60 s for 20 s — or a key=value
// option: mtbf=MS and mean=MS arm a random partition process, split=P
// sets its per-site group probability, and hb=MS / suspect=MS tune the
// heartbeat failure detector. During a partition, messages do not cross
// group boundaries: distributed transactions needing unreachable (or
// suspected) participants are shed at submission, in-flight ones abort
// (presumed abort; in-doubt slaves resolve by cooperative termination at
// heal), and minority-side sites refuse failover reads.
//
// The -graysites argument schedules gray failures (semicolon-separated;
// see carat.ParseGraySites): '1@60000+30000*3/2' runs site 1 with CPU
// service times stretched 3x and disk 2x from t=60 s for 30 s. A single
// factor ('1@60000+30000*3') degrades both resources.
//
// The -resilience argument configures retry with backoff, per-site
// admission control and deadlock-probe retransmission (see
// carat.ParseResilience for the keys and their defaults). The -repl
// argument replicates every granule across sites: primary-copy two-phase
// locking with write-all-available propagation, a factor R=N and a read
// policy read=one or read=quorum (see carat.ParseReplication).
//
// With -chaos N the tool instead runs N simulations under randomized
// bounded fault plans and resilience policies, audits each against the
// testbed's correctness invariants (2PC atomicity, durability under
// restart replay, transaction conservation, a goodput floor) and exits
// non-zero if any run violates one. Adding -chaospartitions draws
// scheduled network partitions into every run's plan, arming the
// split-brain invariants (replica agreement and post-heal
// reconciliation).
//
// With -trace the tool instead runs one short simulation (1 ms warm-up,
// then -minutes of simulated time) and prints its protocol event stream
// in simulation-time order: every lock wait, deadlock victim, rollback and
// two-phase-commit step — e.g. one distributed update from TBEGIN through
// the PREPARE acknowledgments, the force-written commit record and the
// slave commits — closing with a '-- N events over S simulated seconds'
// line. With -txn only that transaction's events print. Fault plans add
// the crash, restart and timeout-abort events; -partition and -graysites
// the partition, partition-heal, suspect and trust events of the
// failure-detector layer. Under -open each arrival prints an 'arrival'
// event at its home site (its Txn field is the negated arrival sequence
// number: no submission exists yet), or 'admission-shed' when a shedding
// gate (-resilience 'mpl=N,shed=1') rejects it. On a scale fleet every
// message on the shared Ethernet prints a 'net-hop' event (Node is the
// sender, Granule the destination site). -trace is a single text run:
// combining it with -sweep, -reps > 1, -lambdas, -ccsweep, -scalesweep,
// -chaos or -json is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"carat"
	"carat/cmd/internal/shapeflag"
)

func main() {
	c, err := parseConfig(flag.CommandLine, os.Args[1:])
	check(err)
	warmup := 120_000.0
	opts := carat.SimOptions{
		Seed:         c.seed,
		WarmupMS:     warmup,
		DurationMS:   warmup + c.minutes*60_000,
		Replications: c.reps,
		Workers:      c.workers,
	}
	switch {
	case c.ccMPLs != nil:
		runCCSweep(c.ccMPLs, opts, c.asJSON)
		return
	case c.scaleLambdas != nil:
		runScaleSweep(c.strategy, c.sites, c.localities, c.scaleLambdas, opts, c.asJSON)
		return
	}
	for _, size := range c.shape.Sizes() {
		wl, err := c.build(size)
		check(err)
		switch {
		case c.trace:
			runTrace(wl, c.seed, c.minutes, c.txn)
		case c.chaos > 0:
			runChaos(wl, c.chaos, c.seed, c.chaosParts, c.asJSON)
		case c.lambdas != nil:
			runCapacity(wl, size, c.lambdas, opts, c.asJSON)
		case c.reps > 1:
			runReplicated(wl, size, opts, c.asJSON)
		case c.scale:
			runScale(wl, c, opts)
		default:
			runSingle(wl, size, c, opts)
		}
	}
}

// check exits with err on stderr when it is non-nil.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// config is the parsed command line: the flag values every mode's
// workload is built from, and the mode they select.
type config struct {
	shape                    *shapeflag.Shape
	seed                     uint64
	minutes                  float64
	hot, hotfrac, theta      float64
	pattern                  string
	lambda                   float64
	reps, workers, chaos     int
	open, chaosParts, asJSON bool
	trace                    bool
	txn                      int64
	cc                       carat.ConcurrencyControl
	faults                   *carat.FaultPlan
	partitioned              bool // -partition or -graysites given
	resilience               *carat.Resilience
	replication              *carat.ReplicationPolicy
	arrivals                 *carat.OpenArrivals // nil unless an open-arrival flag is given
	lambdas                  []float64           // -lambdas capacity grid
	ccMPLs                   []int               // -ccsweep multipliers
	scale                    bool                // a generated scale fleet instead of a named workload
	strategy                 carat.PlacementStrategy
	sites                    []int
	localities, scaleLambdas []float64
}

// parseConfig declares caratsim's flags on fs, parses args, and rejects
// flag combinations a mode would otherwise have to ignore.
func parseConfig(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{shape: shapeflag.Register(fs)}
	fs.Uint64Var(&c.seed, "seed", 1, "random seed (equal seeds reproduce runs exactly)")
	fs.Float64Var(&c.minutes, "minutes", 60, "simulated measurement window in minutes (-trace: traced time)")
	fs.Float64Var(&c.hot, "hot", 0, "hotspot: fraction of records that are hot (0 = uniform)")
	fs.Float64Var(&c.hotfrac, "hotfrac", 0.8, "hotspot: fraction of accesses aimed at the hot set")
	fs.StringVar(&c.pattern, "pattern", "", "record access pattern: uniform, hotspot or zipf")
	fs.Float64Var(&c.theta, "zipftheta", 0.99, "zipf: skew exponent for -pattern zipf")
	fs.BoolVar(&c.open, "open", false, "open workload: Poisson arrivals replace the closed terminals")
	fs.Float64Var(&c.lambda, "lambda", 1, "open mode: system-wide arrival rate in transactions/s (scale mode: per site)")
	var (
		classes = fs.String("classes", "", "open mode: arrival mix, e.g. 'kind=LRO,weight=3;kind=DU,n=4' (see doc comment)")
		bfactor = fs.Float64("burstfactor", 0, "open mode: burst rate multiplier (<=1 = no bursts)")
		bon     = fs.Float64("burston", 0, "open mode: mean burst duration in ms")
		boff    = fs.Float64("burstoff", 0, "open mode: mean gap between bursts in ms")
		ramp    = fs.String("ramp", "", "open mode: piecewise-linear schedule 'AT:RATE,AT:RATE' (ms:arrivals/s)")
		lambdas = fs.String("lambdas", "", "capacity sweep: comma-separated offered rates in transactions/s")
		cc      = fs.String("cc", "2PL", "concurrency control: 2PL, wait-die, wound-wait, timestamp-ordering, occ or quecc")
		ccsweep = fs.String("ccsweep", "", "CC comparison lab: comma-separated MPL multipliers, e.g. '1,2,4' (8m users per cell)")
		scsweep = fs.String("scalesweep", "", "scale-out study: comma-separated per-site arrival rates in txn/s, e.g. '0.5,1.0'")
		sites   = fs.String("sites", "16,64,128", "scale mode: comma-separated site counts in [2,512]")
		placemt = fs.String("placement", "locality", "scale mode: placement strategy: hash, range or locality")
		localty = fs.String("locality", "0.9,0.5,0.1", "scale mode: comma-separated home-shard affinity fractions in [0,1]")
		faults  = fs.String("faults", "", "fault plan, e.g. 'crash=1@60000+10000,lockto=5000' (see doc comment)")
		partStr = fs.String("partition", "", "network partitions, e.g. '0,1|2,3@60000+20000;mtbf=120000' (see doc comment)")
		grayStr = fs.String("graysites", "", "gray failures, e.g. '1@60000+30000*3/2' (see doc comment)")
		resil   = fs.String("resilience", "", "resilience policy, e.g. 'retries=8,backoff=50,mpl=4,probe=500' (see doc comment)")
		replStr = fs.String("repl", "", "replication policy, e.g. 'R=2,read=quorum' (see doc comment)")
	)
	fs.IntVar(&c.reps, "reps", 1, "independent replications per point; >1 reports mean ±95% CI")
	fs.IntVar(&c.workers, "workers", 0, "parallel simulation workers for -reps (0 = GOMAXPROCS)")
	fs.BoolVar(&c.chaosParts, "chaospartitions", false, "with -chaos: also draw scheduled partitions into every run")
	fs.IntVar(&c.chaos, "chaos", 0, "run a randomized fault audit with this many runs instead of a measurement")
	fs.BoolVar(&c.trace, "trace", false, "print one run's protocol event stream instead of its measurement")
	fs.Int64Var(&c.txn, "txn", 0, "with -trace: print only this transaction id (0 = all)")
	fs.BoolVar(&c.asJSON, "json", false, "emit measurements as JSON")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if !(c.minutes > 0) || math.IsInf(c.minutes, 1) {
		return nil, fmt.Errorf("caratsim: -minutes %v: want a positive finite duration", c.minutes)
	}

	var err error
	if c.cc, err = carat.ParseConcurrencyControl(*cc); err != nil {
		return nil, err
	}
	if *faults != "" || *partStr != "" || *grayStr != "" {
		c.faults = &carat.FaultPlan{}
		if *faults != "" {
			if *c.faults, err = carat.ParseFaultPlan(*faults); err != nil {
				return nil, err
			}
		}
		if *partStr != "" {
			if err := carat.ParsePartitions(*partStr, c.faults); err != nil {
				return nil, err
			}
		}
		if *grayStr != "" {
			if err := carat.ParseGraySites(*grayStr, c.faults); err != nil {
				return nil, err
			}
		}
		c.partitioned = *partStr != "" || *grayStr != ""
	}
	if *resil != "" {
		r, err := carat.ParseResilience(*resil)
		if err != nil {
			return nil, err
		}
		c.resilience = &r
	}
	if *replStr != "" {
		rp, err := carat.ParseReplication(*replStr)
		if err != nil {
			return nil, err
		}
		c.replication = &rp
	}

	// A flag counts as given when its value differs from the default.
	given := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { given[f.Name] = f.Value.String() != f.DefValue })
	openShape := []string{"open", "classes", "burstfactor", "burston", "burstoff", "ramp"}
	openFlag := "" // the first open-arrival flag given
	for _, f := range openShape {
		if given[f] {
			openFlag = f
			break
		}
	}
	if openFlag != "" {
		c.arrivals = &carat.OpenArrivals{
			LambdaPerSec: c.lambda,
			Burst:        carat.BurstModulation{Factor: *bfactor, OnMeanMS: *bon, OffMeanMS: *boff},
		}
		if *classes != "" {
			if c.arrivals.Classes, err = carat.ParseOpenClasses(*classes); err != nil {
				return nil, err
			}
		}
		if *ramp != "" {
			if c.arrivals.Ramp, err = parseList("ramp", *ramp, parseRampPoint); err != nil {
				return nil, err
			}
		}
	}
	if *lambdas != "" {
		if c.lambdas, err = parseList("lambdas", *lambdas, parseFinite); err != nil {
			return nil, err
		}
	}
	if *ccsweep != "" {
		if c.ccMPLs, err = parseList("ccsweep", *ccsweep, intIn(1, math.MaxInt)); err != nil {
			return nil, err
		}
	}
	c.scale = *scsweep != ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sites", "placement", "locality":
			c.scale = true
		}
	})
	if c.scale {
		if c.strategy, err = carat.ParsePlacement(*placemt); err != nil {
			return nil, err
		}
		if c.sites, err = parseList("sites", *sites, intIn(2, 512)); err != nil {
			return nil, err
		}
		if c.localities, err = parseList("locality", *localty, floatIn(0, 1)); err != nil {
			return nil, err
		}
		if *scsweep != "" {
			if c.scaleLambdas, err = parseList("scalesweep", *scsweep, parseFinite); err != nil {
				return nil, err
			}
		}
	}

	for _, m := range []struct {
		name  string
		on    bool
		flags []string
	}{
		{"-trace", c.trace, []string{"sweep", "reps", "lambdas", "ccsweep", "scalesweep", "chaos", "json"}},
		{"-chaos", c.chaos > 0, []string{"sweep", "reps", "lambdas", "ccsweep", "scalesweep", "faults", "partition", "graysites", "resilience"}},
		{"-lambdas", c.lambdas != nil, []string{"lambda", "ramp", "ccsweep"}},
		{"a scale fleet (-sites, -placement, -locality, -scalesweep)", c.scale,
			append([]string{"workload", "n", "sweep", "lambdas", "ccsweep"}, openShape...)},
	} {
		for _, f := range m.flags {
			if m.on && given[f] {
				return nil, fmt.Errorf("caratsim: %s cannot be combined with -%s", m.name, f)
			}
		}
	}
	if given["txn"] && !c.trace {
		return nil, fmt.Errorf("caratsim: -txn filters -trace output; add -trace")
	}
	if openFlag != "" && !c.open && c.lambdas == nil {
		return nil, fmt.Errorf("caratsim: -%s shapes open arrivals; add -open or -lambdas", openFlag)
	}
	return c, nil
}

// build returns the workload every single-configuration mode runs at
// transaction size size: the named workload (or the scale fleet) with
// every shape, pattern, CC, fault, resilience, replication and open flag
// applied, always in this order.
func (c *config) build(size int) (carat.Workload, error) {
	var wl carat.Workload
	var err error
	if c.scale {
		if wl, err = carat.NewScaleConfig(c.sites[0], c.strategy, c.localities[0], c.lambda); err != nil {
			return wl, err
		}
		wl = c.shape.Apply(wl)
	} else if wl, err = c.shape.Workload(size); err != nil {
		return wl, err
	}
	if c.hot > 0 {
		wl = wl.WithHotspot(c.hot, c.hotfrac)
	}
	if c.pattern != "" {
		h := c.hot
		if h == 0 {
			h = 0.2
		}
		p, err := carat.PatternByName(c.pattern, h, c.hotfrac, c.theta)
		if err != nil {
			return wl, err
		}
		wl = wl.WithPattern(p)
	}
	wl = wl.WithConcurrencyControl(c.cc)
	if c.faults != nil {
		wl = wl.WithFaults(*c.faults)
	}
	if c.resilience != nil {
		wl = wl.WithResilience(*c.resilience)
	}
	if c.replication != nil {
		wl = wl.WithReplication(*c.replication)
	}
	if c.arrivals != nil {
		wl = wl.WithOpenArrivals(*c.arrivals)
		// A capacity sweep keeps the closed users: they parameterize its
		// model bound and default mix, and it removes them per point.
		if c.lambdas == nil {
			wl = wl.WithoutClosedUsers()
		}
	}
	return wl, nil
}

// parseList parses the comma-separated list value of flag name, naming
// the flag in any error.
func parseList[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		x, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: %q: %w", name, part, err)
		}
		out = append(out, x)
	}
	return out, nil
}

// parseFinite parses a float, rejecting NaN and ±Inf.
func parseFinite(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		err = fmt.Errorf("%v is not a finite number", x)
	}
	return x, err
}

// floatIn returns a parser for finite floats in [lo, hi].
func floatIn(lo, hi float64) func(string) (float64, error) {
	return func(s string) (float64, error) {
		x, err := parseFinite(s)
		if err == nil && (x < lo || x > hi) {
			err = fmt.Errorf("out of range (valid: %v through %v)", lo, hi)
		}
		return x, err
	}
}

// intIn returns a parser for integers in [lo, hi].
func intIn(lo, hi int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		switch {
		case err != nil:
		case n < lo && hi == math.MaxInt:
			err = fmt.Errorf("out of range (valid: %d or more)", lo)
		case n < lo || n > hi:
			err = fmt.Errorf("out of range (valid: %d through %d)", lo, hi)
		}
		return n, err
	}
}

// parseRampPoint parses one AT:RATE knot of the -ramp schedule
// (ms:arrivals/s).
func parseRampPoint(s string) (carat.RampPoint, error) {
	var p carat.RampPoint
	at, rate, ok := strings.Cut(s, ":")
	if !ok {
		return p, fmt.Errorf("wants AT:RATE")
	}
	var err error
	if p.AtMS, err = parseFinite(at); err != nil {
		return p, err
	}
	p.LambdaPerSec, err = parseFinite(rate)
	return p, err
}

// runTrace runs one traced simulation — 1 ms of warm-up, then minutes of
// simulated time — and prints its protocol events (only transaction txn's
// when txn is non-zero) and a closing count.
func runTrace(wl carat.Workload, seed uint64, minutes float64, txn int64) {
	seconds := minutes * 60
	count := 0
	_, err := carat.SimulateWithTrace(wl, carat.SimOptions{Seed: seed, WarmupMS: 1, DurationMS: seconds * 1000}, func(ev carat.TraceEvent) {
		if txn != 0 && ev.Txn != txn {
			return
		}
		count++
		g := ""
		if ev.Granule >= 0 {
			g = fmt.Sprintf(" granule=%d", ev.Granule)
		}
		fmt.Printf("%12.1f ms  txn=%-5d %-4s node=%d  %-20s%s\n",
			ev.TimeMS, ev.Txn, ev.Type, ev.Node, ev.Event, g)
	})
	check(err)
	fmt.Printf("-- %d events over %.0f simulated seconds\n", count, seconds)
}

// runSingle runs one measurement and prints it with the counters of every
// subsystem the flags switched on.
func runSingle(wl carat.Workload, size int, c *config, opts carat.SimOptions) {
	meas, err := carat.Simulate(wl, opts)
	check(err)
	if c.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			Workload string
			N        int
			Seed     uint64
			*carat.Measurement
		}{wl.Name(), size, c.seed, meas}))
		return
	}
	fmt.Printf("%s  n=%d  seed=%d  window=%.0f min\n", wl.Name(), size, c.seed, meas.WindowMS/60000)
	for i, node := range meas.Nodes {
		fmt.Printf("  Node %c: TR-XPUT %.3f txn/s  records %.1f/s  CPU %.3f  DIO %.1f/s  deadlocks %d\n",
			'A'+i, node.TxnPerSec, node.RecordsPerSec, node.CPUUtilization,
			node.DiskIOPerSec, node.Deadlocks)
		for _, ty := range []carat.TxnType{carat.LocalReadOnly, carat.LocalUpdate, carat.DistributedRead, carat.DistributedUpdate} {
			if x, ok := node.TxnPerSecByType[ty]; ok {
				fmt.Printf("    %-4s X=%.3f±%.3f/s  R=%.0f ms  p95=%.0f ms\n",
					ty, x, node.TxnPerSecCI[ty], node.MeanResponseMS[ty], node.P95ResponseMS[ty])
			}
		}
		if c.faults != nil {
			fmt.Printf("    avail %.4f  crashes %d  down %.0f ms  aborts crash/timeout %d/%d  in-doubt C/A %d/%d  lost msgs %d\n",
				node.Availability, node.Crashes, node.DowntimeMS,
				node.CrashAborts, node.TimeoutAborts,
				node.InDoubtCommitted, node.InDoubtAborted, node.MessagesLost)
		}
		if c.partitioned {
			fmt.Printf("    partition aborts/shed %d/%d  suspects %d  gray %.0f ms\n",
				node.PartitionAborts, node.PartitionShed, node.SuspectEvents, node.GrayMS)
		}
		if c.resilience != nil {
			var retried, abandoned int64
			for _, n := range node.Retried {
				retried += n
			}
			for _, n := range node.Abandoned {
				abandoned += n
			}
			fmt.Printf("    retried %d  abandoned %d  shed/delayed %d/%d  admit wait %.1f ms  peak MPL %d  probes lost/resent %d/%d\n",
				retried, abandoned, node.ShedArrivals, node.DelayedArrivals,
				node.MeanAdmitWaitMS, node.PeakMPL, node.ProbesLost, node.ProbesResent)
		}
		if c.replication != nil {
			fmt.Printf("    failover reads %d  replica applies %d  quorum reads %d\n",
				node.FailoverReads, node.ReplicaApplies, node.QuorumReads)
		}
		if c.open {
			fmt.Printf("    arrivals %d (%.3f/s offered)  in-system mean %.1f peak %.0f  R mean/p50/p95 %.0f/%.0f/%.0f ms\n",
				node.OpenArrivals, node.OpenOfferedPerSec,
				node.OpenMeanInSystem, node.OpenPeakInSystem,
				node.OpenMeanResponseMS, node.OpenP50ResponseMS, node.OpenP95ResponseMS)
		}
	}
	if c.faults != nil {
		var degraded int64
		for _, node := range meas.Nodes {
			degraded += node.DegradedCommits
		}
		fmt.Printf("  degraded: %.0f ms with a site down, %d commits during outages\n",
			meas.DegradedMS, degraded)
		if meas.Partitions > 0 {
			fmt.Printf("  partitions: %d taking effect, network severed %.0f ms\n",
				meas.Partitions, meas.PartitionMS)
		}
	}
	fmt.Println()
}

// runScale runs a single generated N-site configuration through the
// standard measurement path and prints the fleet summary with the shared
// wire's metrics.
func runScale(wl carat.Workload, c *config, opts carat.SimOptions) {
	meas, err := carat.Simulate(wl, opts)
	check(err)
	if c.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			Workload      string
			Sites         int
			Placement     string
			Locality      float64
			LambdaPerSite float64
			Seed          uint64
			*carat.Measurement
		}{wl.Name(), c.sites[0], string(c.strategy), c.localities[0], c.lambda, opts.Seed, meas}))
		return
	}
	var tps, maxCPU, maxDisk float64
	for _, node := range meas.Nodes {
		tps += node.TxnPerSec
		if node.CPUUtilization > maxCPU {
			maxCPU = node.CPUUtilization
		}
		if node.DiskUtilization > maxDisk {
			maxDisk = node.DiskUtilization
		}
	}
	fmt.Printf("%s  sites=%d  placement=%s  locality=%.2f  λ/site=%.2f/s  seed=%d  window=%.0f min\n",
		wl.Name(), c.sites[0], c.strategy, c.localities[0], c.lambda, opts.Seed, meas.WindowMS/60000)
	fmt.Printf("  fleet: committed %.2f txn/s  max CPU util %.3f  max disk util %.3f\n", tps, maxCPU, maxDisk)
	fmt.Printf("  wire: %d msgs (%d bytes)  util %.3f  inflation %.3f ms/msg  queue %.3f ms/msg\n",
		meas.NetMessages, meas.NetBytes, meas.NetUtilization, meas.NetMeanInflationMS, meas.NetMeanQueueMS)
}

// runScaleSweep runs the full scale-out study and prints the
// bottleneck-migration table.
func runScaleSweep(strategy carat.PlacementStrategy, sites []int, localities, lambdas []float64, opts carat.SimOptions, asJSON bool) {
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rscale sweep: %d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	report, err := carat.ScaleSweep(strategy, sites, localities, lambdas, opts)
	check(err)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(report))
		return
	}
	fmt.Printf("Scale sweep  placement=%s  seed=%d  %d cells\n", report.Strategy, opts.Seed, len(report.Points))
	fmt.Printf("  %5s %8s %7s %9s %7s %9s %8s %9s %7s %9s %9s %9s  %s\n",
		"sites", "locality", "λ/site", "TPS", "abort", "resp ms",
		"CPU", "disk", "TM", "wire", "infl ms", "queue ms", "bottleneck")
	for _, p := range report.Points {
		fmt.Printf("  %5d %8.2f %7.2f %9.1f %7.3f %9.0f %8.2f %9.2f %7.2f %9.2f %9.3f %9.3f  %s\n",
			p.Sites, p.Locality, p.LambdaPerSite, p.CommittedTPS, p.AbortRate, p.MeanResponseMS,
			p.MaxCPUUtil, p.MaxDiskUtil, p.MaxTMUtil, p.WireUtil,
			p.NetMeanInflationMS, p.NetMeanQueueMS, p.Bottleneck)
	}
}

// runCCSweep runs the concurrency-control comparison lab over the default
// protocol trio (2PL-detect, QueCC, OCC) and prints the full grid.
func runCCSweep(mpls []int, opts carat.SimOptions, asJSON bool) {
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rCC sweep: %d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	report, err := carat.CompareConcurrencyControls(nil, mpls, opts)
	check(err)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(report))
		return
	}
	fmt.Printf("CC comparison  seed=%d  protocols %s  contentions %s\n",
		opts.Seed, strings.Join(report.Protocols, ", "), strings.Join(report.Contentions, ", "))
	fmt.Printf("  %-14s %-14s %6s %9s %7s %8s %10s %8s %8s %10s\n",
		"protocol", "contention", "users", "TPS", "abort", "resp ms",
		"deadlocks", "probes", "v-aborts", "lock waits")
	for _, p := range report.Points {
		fmt.Printf("  %-14s %-14s %6d %9.2f %7.3f %8.0f %10d %8d %8d %10d\n",
			p.Protocol, p.Contention, p.Users, p.CommittedTPS, p.AbortRate,
			p.MeanResponseMS, p.Deadlocks, p.ProbesResent, p.ValidationAborts, p.LockWaits)
	}
}

// runCapacity runs the -lambdas capacity sweep and prints the saturation
// summary against the closed model's bottleneck bound.
func runCapacity(wl carat.Workload, size int, grid []float64, opts carat.SimOptions, asJSON bool) {
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s n=%d: %d/%d capacity runs", wl.Name(), size, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	report, err := carat.CapacitySweep(wl, grid, opts)
	check(err)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			N    int
			Seed uint64
			*carat.CapacityReport
		}{size, opts.Seed, report}))
		return
	}
	fmt.Printf("%s  n=%d  seed=%d  capacity sweep over %d offered rates\n",
		report.Workload, size, opts.Seed, len(report.Points))
	for _, p := range report.Points {
		fmt.Printf("  λ=%6.3f/s  offered %6.3f  committed %6.3f  shed %5.3f  abandoned %5.3f  R %7.0f ms  p95 %7.0f ms  N %7.1f\n",
			p.LambdaTPS, p.OfferedTPS, p.CommittedTPS, p.ShedTPS, p.AbandonedTPS,
			p.MeanResponseMS, p.P95ResponseMS, p.MeanInSystem)
	}
	fmt.Printf("  peak committed %.3f txn/s  knee λ=%.3f/s", report.PeakCommittedTPS, report.KneeLambdaTPS)
	if report.BottleneckBoundTPS > 0 {
		fmt.Printf("  bound 1/Dmax %.3f txn/s (measured peak = %.0f%% of bound)",
			report.BottleneckBoundTPS, 100*report.PeakCommittedTPS/report.BottleneckBoundTPS)
	}
	fmt.Println()
	fmt.Println()
}

// runChaos runs the randomized fault audit and exits non-zero if any run
// violates an invariant.
func runChaos(wl carat.Workload, runs int, seed uint64, partitions, asJSON bool) {
	report, err := carat.RunChaos(wl, carat.ChaosOptions{Runs: runs, Seed: seed, Partitions: partitions})
	check(err)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(report))
	} else {
		fmt.Printf("%s chaos audit: %d runs, fault-free baseline %.2f txn/s\n",
			wl.Name(), len(report.Runs), report.BaselineTPS)
		for _, run := range report.Runs {
			status := "ok"
			if len(run.Violations) > 0 {
				status = fmt.Sprintf("%d VIOLATION(S)", len(run.Violations))
			}
			fmt.Printf("  run %2d  seed %#016x  goodput %7.2f txn/s  %s\n",
				run.Run, run.Seed, run.GoodputTPS, status)
		}
	}
	if bad := report.Violations(); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, v)
		}
		os.Exit(1)
	}
}

// runReplicated runs one sweep point with -reps > 1: independent parallel
// replications aggregated into mean ±95% CI per metric. A progress line on
// stderr tracks the worker pool.
func runReplicated(wl carat.Workload, size int, opts carat.SimOptions, asJSON bool) {
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s n=%d: %d/%d replications", wl.Name(), size, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	rm, err := carat.SimulateReplicated(wl, opts)
	check(err)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			Workload string
			N        int
			Seed     uint64
			*carat.ReplicatedMeasurement
		}{wl.Name(), size, opts.Seed, rm}))
		return
	}
	fmt.Printf("%s  n=%d  seed=%d  reps=%d  window=%.0f min  (95%% CI over replications)\n",
		wl.Name(), size, opts.Seed, rm.Replications, rm.WindowMS/60000)
	for i, node := range rm.Nodes {
		fmt.Printf("  Node %c: TR-XPUT %.3f ±%.3f txn/s  records %.1f ±%.1f/s  CPU %.3f ±%.3f  DIO %.1f ±%.1f/s\n",
			'A'+i, node.TxnPerSec.Mean, node.TxnPerSec.HalfWidth,
			node.RecordsPerSec.Mean, node.RecordsPerSec.HalfWidth,
			node.CPUUtilization.Mean, node.CPUUtilization.HalfWidth,
			node.DiskIOPerSec.Mean, node.DiskIOPerSec.HalfWidth)
		for _, ty := range []carat.TxnType{carat.LocalReadOnly, carat.LocalUpdate, carat.DistributedRead, carat.DistributedUpdate} {
			if x, ok := node.TxnPerSecByType[ty]; ok {
				r := node.MeanResponseMS[ty]
				fmt.Printf("    %-4s X=%.3f ±%.3f/s  R=%.0f ±%.0f ms\n", ty, x.Mean, x.HalfWidth, r.Mean, r.HalfWidth)
			}
		}
	}
	fmt.Println()
}
