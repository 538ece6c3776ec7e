// Package carat reproduces "A Queueing Network Model for a Distributed
// Database Testbed System" (Jenq, Kohler, Towsley; ICDE 1987): an
// analytical queueing network model of a distributed transaction
// processing system — two-phase locking with distributed deadlock
// detection, before-image write-ahead journaling, and centralized
// two-phase commit — validated against a faithful discrete-event simulator
// of the CARAT testbed the paper measured.
//
// The package offers three entry points:
//
//   - SolveModel analytically predicts throughput, utilizations, disk I/O
//     rates and response times for a workload (the paper's contribution).
//   - Simulate runs the CARAT testbed simulator on the same workload (the
//     paper's "measurement" side).
//   - Compare does both and lays the results side by side, which is how
//     every table and figure of the paper's evaluation is regenerated.
//
// Standard workloads are the paper's LB8, MB4, MB8 and UB6; NewWorkload
// builds custom mixes. All times are milliseconds unless a field name says
// otherwise.
package carat

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"carat/internal/cc"
	"carat/internal/core"
	"carat/internal/disk"
	"carat/internal/experiment"
	"carat/internal/openload"
	"carat/internal/placement"
	"carat/internal/repl"
	"carat/internal/stats"
	"carat/internal/storage"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// TxnType identifies a workload transaction type.
type TxnType string

// The four synthetic transaction types of the paper's workload (Section 2).
const (
	LocalReadOnly     TxnType = "LRO"
	LocalUpdate       TxnType = "LU"
	DistributedRead   TxnType = "DRO"
	DistributedUpdate TxnType = "DU"
)

func (t TxnType) kind() (testbed.TxnKind, error) {
	switch t {
	case LocalReadOnly:
		return testbed.LRO, nil
	case LocalUpdate:
		return testbed.LU, nil
	case DistributedRead:
		return testbed.DRO, nil
	case DistributedUpdate:
		return testbed.DU, nil
	default:
		return 0, fmt.Errorf("carat: unknown transaction type %q", string(t))
	}
}

// Workload describes one experiment: a transaction mix over a set of
// nodes at a given transaction size. Construct with WorkloadLB8/MB4/MB8/
// UB6 or NewWorkload, then adjust with the With* methods (which return
// modified copies).
type Workload struct {
	w workload.Workload
}

// WorkloadLB8 returns the paper's local-only workload (4 LRO + 4 LU users
// per node) at transaction size n.
func WorkloadLB8(n int) Workload { return Workload{workload.LB8(n)} }

// WorkloadMB4 returns the paper's mixed distributed workload (one user of
// each type per node) at transaction size n.
func WorkloadMB4(n int) Workload { return Workload{workload.MB4(n)} }

// WorkloadMB8 returns MB4 with doubled populations.
func WorkloadMB8(n int) Workload { return Workload{workload.MB8(n)} }

// WorkloadUB6 returns the paper's local-intensive distributed workload
// (2 LRO + 2 LU + 1 DRO + 1 DU per node).
func WorkloadUB6(n int) Workload { return Workload{workload.UB6(n)} }

// WorkloadByName looks up a standard workload ("LB8", "MB4", "MB8", "UB6").
func WorkloadByName(name string, n int) (Workload, error) {
	w, err := workload.ByName(name, n)
	return Workload{w}, err
}

// User places one closed-loop user of the given type at a home node; Remote
// names the slave node for distributed types. Remotes optionally spreads a
// distributed transaction's remote requests over several slave sites, with
// two-phase commit coordinating all of them.
type User struct {
	Type    TxnType
	Home    int
	Remote  int
	Remotes []int
}

// NewWorkload builds a custom two-or-more-node workload with the paper's
// Table 2 service costs and disk profiles (node 0 gets the RM05, others
// the RP06). Users place the transaction mix; n is the transaction size.
func NewWorkload(name string, nodes int, users []User, n int) (Workload, error) {
	if nodes < 1 {
		return Workload{}, fmt.Errorf("carat: need at least one node")
	}
	var specs []testbed.UserSpec
	for i, u := range users {
		k, err := u.Type.kind()
		if err != nil {
			return Workload{}, fmt.Errorf("carat: user %d: %w", i, err)
		}
		spec := testbed.UserSpec{
			Kind:   k,
			Home:   testbed.NodeID(u.Home),
			Remote: testbed.NodeID(u.Remote),
		}
		for _, r := range u.Remotes {
			spec.Remotes = append(spec.Remotes, testbed.NodeID(r))
		}
		specs = append(specs, spec)
	}
	dbs := make([]disk.ServiceModel, nodes)
	logs := make([]disk.ServiceModel, nodes)
	for i := range dbs {
		if i == 0 {
			dbs[i] = disk.ProfileRM05()
		} else {
			dbs[i] = disk.ProfileRP06()
		}
	}
	w := workload.Workload{
		Name:              name,
		NumNodes:          nodes,
		Users:             specs,
		RequestsPerTxn:    n,
		RecordsPerRequest: 4,
		RemoteFrac:        0.5,
		Layout:            storage.DefaultLayout(),
		Params:            testbed.DefaultParams(nodes),
		DBDisks:           dbs,
		LogDisks:          logs,
	}
	return Workload{w}, nil
}

// Name returns the workload's name.
func (w Workload) Name() string { return w.w.Name }

// TransactionSize returns n, the requests per transaction.
func (w Workload) TransactionSize() int { return w.w.RequestsPerTxn }

// WithTransactionSize returns a copy at a different transaction size.
func (w Workload) WithTransactionSize(n int) Workload {
	w.w.RequestsPerTxn = n
	return w
}

// WithSeparateLogDisks gives every node a dedicated log device with the
// same profile as its database disk — the configuration the paper says a
// real deployment would use.
func (w Workload) WithSeparateLogDisks() Workload {
	logs := make([]disk.ServiceModel, w.w.NumNodes)
	copy(logs, w.w.DBDisks)
	w.w.LogDisks = logs
	return w
}

// WithBufferHitRatio enables the shared database buffer extension: the
// fraction h of granule reads hit memory and skip the disk.
func (w Workload) WithBufferHitRatio(h float64) Workload {
	w.w.BufferHitRatio = h
	return w
}

// WithThinkTime sets the user think time R_UT for every transaction type
// (the paper runs with zero). The workload's other cost parameters are
// preserved: only ThinkTime changes, in a fresh copy of the cost tables so
// the receiver workload is not mutated.
func (w Workload) WithThinkTime(ms float64) Workload {
	p := w.w.Params
	if p.Costs == nil {
		p = testbed.DefaultParams(w.w.NumNodes)
	}
	costs := make(map[testbed.NodeID]map[testbed.TxnKind]testbed.PhaseCosts, len(p.Costs))
	for n, byKind := range p.Costs {
		m := make(map[testbed.TxnKind]testbed.PhaseCosts, len(byKind))
		for k, c := range byKind {
			c.ThinkTime = ms
			m[k] = c
		}
		costs[n] = m
	}
	p.Costs = costs
	w.w.Params = p
	return w
}

// WithHotspot skews record access: frac of accesses target the first hot
// fraction of each site's records (the nonuniform-access extension from
// the paper's conclusions). It affects the simulator; the analytical model
// keeps the paper's uniform-access assumption, so expect the two to
// diverge — that divergence is the point of the extension.
func (w Workload) WithHotspot(hot, frac float64) Workload {
	w.w.Pattern = storage.Hotspot{Hot: hot, Frac: frac}
	return w
}

// WithDatabaseSize overrides each site's database size (blocks at the
// paper's six records per block). Smaller databases raise contention.
func (w Workload) WithDatabaseSize(granules int) Workload {
	w.w.Layout = storage.Layout{Granules: granules, RecordsPerGran: 6}
	return w
}

// ConcurrencyControl names a concurrency control protocol for the
// simulator. The analytical model covers only TwoPhaseLocking (the paper's
// scheme); SolveModel returns an error for the baselines.
type ConcurrencyControl string

// The available protocols: the paper's dynamic 2PL with deadlock
// detection, the two classical timestamp-prevention variants, basic
// timestamp ordering (the alternative Galler's study — cited by the
// paper — favored), optimistic execution with backward validation at
// commit, and QueCC-style deterministic queue-ordered execution.
const (
	TwoPhaseLocking   ConcurrencyControl = "2PL"
	WaitDie           ConcurrencyControl = "wait-die"
	WoundWait         ConcurrencyControl = "wound-wait"
	TimestampOrdering ConcurrencyControl = "timestamp-ordering"
	OptimisticCC      ConcurrencyControl = "occ"
	QueCC             ConcurrencyControl = "quecc"
)

// ParseConcurrencyControl resolves a user-supplied protocol name —
// case-insensitively, accepting the canonical names and common aliases
// ("optimistic", "deterministic", "to", …). Unknown names return an error
// listing the valid modes; it is the strict front door the CLIs use for
// their -cc flags.
func ParseConcurrencyControl(name string) (ConcurrencyControl, error) {
	p, err := cc.Parse(name)
	if err != nil {
		return "", err
	}
	switch p {
	case cc.TwoPhaseWaitDie:
		return WaitDie, nil
	case cc.TwoPhaseWoundWait:
		return WoundWait, nil
	case cc.TimestampOrdering:
		return TimestampOrdering, nil
	case cc.Optimistic:
		return OptimisticCC, nil
	case cc.QueueOrdered:
		return QueCC, nil
	default:
		return TwoPhaseLocking, nil
	}
}

// protocol maps the facade name to the testbed's protocol enum.
// Unrecognized values fall back to the paper's 2PL default.
func (c ConcurrencyControl) protocol() testbed.CCProtocol {
	switch c {
	case WaitDie:
		return testbed.CCWaitDie
	case WoundWait:
		return testbed.CCWoundWait
	case TimestampOrdering:
		return testbed.CCTimestamp
	case OptimisticCC:
		return testbed.CCOCC
	case QueCC:
		return testbed.CCQueCC
	default:
		return testbed.CC2PL
	}
}

// WithConcurrencyControl selects the simulator's protocol. Unrecognized
// values fall back to the paper's 2PL default; use ParseConcurrencyControl
// to validate names first.
func (w Workload) WithConcurrencyControl(ccName ConcurrencyControl) Workload {
	w.w.Concurrency = ccName.protocol()
	return w
}

// WithDeadlockAdjust scales the model's two-cycle deadlock probability by
// the given factor — the per-workload adjusting factor of Section 5.4.3.
// Fit one with CalibrateDeadlockFactor.
func (w Workload) WithDeadlockAdjust(factor float64) Workload {
	w.w.DeadlockAdjust = factor
	return w
}

// WithTMSerializationModel enables the analytical model's optional
// TM-server serialization correction — the delay the paper deliberately
// ignores (Section 5.5) and blames for its largest deviations at small
// transaction sizes. The correction lowers predicted throughput slightly,
// most at small n.
func (w Workload) WithTMSerializationModel() Workload {
	w.w.ModelTMSerialization = true
	return w
}

// WithRemoteFraction sets the share of a distributed transaction's n
// requests that execute at its slave sites (the paper's experiments use
// 0.5: l = r = n/2). Both the simulator's request scheduler and the
// model's l(t)/r(t) split follow it.
func (w Workload) WithRemoteFraction(frac float64) Workload {
	w.w.RemoteFrac = frac
	return w
}

// WithCPUs gives every node k processors (the paper's nodes had one; two
// models a VAX 11/782-class dual processor). The model's CPU center
// becomes an m-server station solved with Seidmann's approximation.
func (w Workload) WithCPUs(k int) Workload {
	w.w.CPUs = k
	return w
}

// WithDetailedDisks swaps the flat per-block disk times for positional
// seek+rotation models calibrated to the same means. The analytical model
// keeps using the means, so the comparison measures the robustness of that
// assumption against realistic service-time variability.
func (w Workload) WithDetailedDisks() Workload {
	w.w.DetailedDisks = true
	return w
}

// WithEthernet models the inter-site network as the testbed's 10 Mb/s
// Ethernet under load ([ALME79], the paper's Communication Network Model)
// instead of a fixed delay: the simulator estimates channel utilization
// from bytes on the wire, and the analytical model feeds its own message
// rate back into the network model each iteration. At the paper's two-node
// message rates the resulting α is fractions of a millisecond — the
// paper's justification for neglecting it.
func (w Workload) WithEthernet() Workload {
	w.w.EthernetAlpha = true
	return w
}

// WithStripedDatabase spreads each site's database over k identical disks
// (block g on disk g mod k) — the paper's "multiple DISK queueing centers"
// option. Both the simulator and the model gain one disk queue per stripe;
// the shared recovery log stays on the first stripe unless
// WithSeparateLogDisks is also applied.
func (w Workload) WithStripedDatabase(k int) Workload {
	w.w.DiskStripes = k
	return w
}

// WithNetworkDelay sets the mean one-way inter-site message delay α in ms.
// The paper measured a negligible α on its two-node Ethernet and dropped
// it; a non-zero value slows distributed transactions in both the model
// (Eqs. 21–22 and the 2PC round trips) and the simulator.
func (w Workload) WithNetworkDelay(alphaMS float64) Workload {
	w.w.Alpha = alphaMS
	return w
}

// NodeID identifies a site: node A is 0, node B is 1, and so on.
type NodeID = testbed.NodeID

// The fault-injection types, shared field for field with the testbed: a
// FaultPlan injects mid-run faults into simulator runs — site crashes
// (explicit schedule and/or an exponential crash process), network
// partitions (scheduled and/or a random partition process), gray failures,
// message loss and extra delay on the inter-site network, and the protocol
// timeouts surviving sites use to degrade gracefully. Fault timing is
// driven by a dedicated RNG stream derived from FaultPlan.Seed, so it is
// deterministic and independent of the workload seed. A zero plan is fully
// inert. All times are milliseconds; each field, with its default, is
// documented on the internal/testbed type.
type (
	FaultPlan = testbed.FaultPlan
	// SiteCrash schedules one explicit crash: site Site loses its volatile
	// state at AtMS and begins restart recovery DownForMS later.
	SiteCrash = testbed.SiteCrash
	// PartitionSchedule schedules one network partition: at AtMS the sites
	// split into Groups, only same-group sites exchange messages, and the
	// network heals HealAfterMS later. Sites in no group stay reachable
	// from everyone (a partial partition).
	PartitionSchedule = testbed.PartitionSchedule
	// GrayFailure degrades one site without failing it: from AtMS for
	// ForMS its CPU service times are stretched by CPUFactor and its disk
	// service times by DiskFactor (each >= 1; zero leaves that resource
	// unchanged).
	GrayFailure = testbed.GrayFailure
)

// WithFaults attaches a fault plan to the workload's simulator runs; the
// analytical model ignores it. Availability metrics appear in
// NodeMetrics and Measurement. The workload keeps a private copy of the
// plan: later changes to f's slices do not reach it.
func (w Workload) WithFaults(f FaultPlan) Workload {
	f.Crashes = slices.Clone(f.Crashes)
	f.GraySites = slices.Clone(f.GraySites)
	f.Partitions = slices.Clone(f.Partitions)
	for i := range f.Partitions {
		groups := slices.Clone(f.Partitions[i].Groups)
		for j := range groups {
			groups[j] = slices.Clone(groups[j])
		}
		f.Partitions[i].Groups = groups
	}
	w.w.Faults = &f
	return w
}

// parseFloat is the number parser of the command-line syntaxes below:
// strconv.ParseFloat that also rejects NaN and ±Inf, which no rate, time,
// probability or factor in them can meaningfully be.
func parseFloat(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		err = fmt.Errorf("%v is not a finite number", x)
	}
	return x, err
}

// fields splits s on sep and returns the trimmed, non-empty parts.
func fields(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseSettings parses the sep-separated key=value list s of the syntax
// what into the targets of keys. A *float64 (finite only), *int, *uint64
// or *bool target is set to its parsed value, and a func(string) error
// parses a value with its own syntax. A target is written only after its
// value parsed. Every error begins with "what: ".
func parseSettings(what, s, sep string, keys map[string]any) error {
	for _, part := range fields(s, sep) {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", what, part)
		}
		var err error
		switch t := keys[key].(type) {
		case *float64:
			err = set(t, parseFloat, val)
		case *int:
			err = set(t, strconv.Atoi, val)
		case *uint64:
			err = set(t, func(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) }, val)
		case *bool:
			err = set(t, strconv.ParseBool, val)
		case func(string) error:
			err = t(val)
		default:
			return fmt.Errorf("%s: unknown key %q", what, key)
		}
		if err != nil {
			return fmt.Errorf("%s: %s value %q: %w", what, key, val, err)
		}
	}
	return nil
}

// set stores parse(val) in *p when it parses.
func set[T any](p *T, parse func(string) (T, error), val string) error {
	x, err := parse(val)
	if err == nil {
		*p = x
	}
	return err
}

// window parses the HEAD@AT+DUR form of crash=, partition and gray-failure
// entries; form names the whole syntax in the error.
func window(s, form string) (head string, at, dur float64, err error) {
	head, timing, ok := strings.Cut(s, "@")
	atS, durS, ok2 := strings.Cut(timing, "+")
	if !ok || !ok2 {
		return "", 0, 0, fmt.Errorf("%q wants %s", s, form)
	}
	if at, err = parseFloat(atS); err != nil {
		return "", 0, 0, fmt.Errorf("time %q: %w", atS, err)
	}
	if dur, err = parseFloat(durS); err != nil {
		return "", 0, 0, fmt.Errorf("duration %q: %w", durS, err)
	}
	return head, at, dur, nil
}

// site parses one site number.
func site(s string) (NodeID, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("site %q: %w", s, err)
	}
	return NodeID(n), nil
}

// ParseFaultPlan parses the comma-separated key=value fault syntax of the
// command-line tools (caratsim -faults):
//
//	crash=SITE@AT+DOWN  crash site SITE at AT ms for DOWN ms (repeatable)
//	mttf=MS             random crashes: mean time to failure per site
//	mttr=MS             mean outage before restart recovery (default 5000)
//	loss=P              per-message loss probability in [0,1)
//	retrans=MS          retransmission delay per lost message (default 10)
//	delayp=P            probability of extra delay on a hop
//	delayms=MS          mean of the extra exponential delay (default 5)
//	prepto=MS           2PC prepare timeout (presumed abort on expiry)
//	lockto=MS           lock wait timeout
//	backoff=MS          user retry backoff while a slave site is down
//	probeloss=P         per-probe loss probability in [0,1] (no retransmit)
//	probeout=MS         drop every inter-site probe before this instant
//	fseed=N             fault RNG seed (default: a fixed stream)
func ParseFaultPlan(s string) (FaultPlan, error) {
	var f FaultPlan
	crash := func(v string) error {
		head, at, down, err := window(v, "SITE@AT+DOWN")
		if err != nil {
			return err
		}
		n, err := site(head)
		if err == nil {
			f.Crashes = append(f.Crashes, SiteCrash{Site: n, AtMS: at, DownForMS: down})
		}
		return err
	}
	err := parseSettings("faults", s, ",", map[string]any{
		"crash":     crash,
		"mttf":      &f.CrashMTTFMS,
		"mttr":      &f.CrashMTTRMS,
		"loss":      &f.MsgLossProb,
		"retrans":   &f.MsgRetransmitMS,
		"delayp":    &f.MsgExtraDelayProb,
		"delayms":   &f.MsgExtraDelayMS,
		"prepto":    &f.PrepareTimeoutMS,
		"lockto":    &f.LockWaitTimeoutMS,
		"backoff":   &f.RetryBackoffMS,
		"probeloss": &f.ProbeLossProb,
		"probeout":  &f.ProbeLossUntilMS,
		"fseed":     &f.Seed,
	})
	return f, err
}

// ParsePartitions parses the command-line network-partition syntax
// (caratsim -partition) into the plan: semicolon-separated entries, each
// either a scheduled split
//
//	GROUPS@AT+HEAL   e.g. 0,1|2,3@60000+20000
//
// — GROUPS is |-separated comma lists of sites; the split takes effect at
// AT ms and heals HEAL ms later — or one of the key=value options
//
//	mtbf=MS     random partition process: mean time between partitions
//	mean=MS     mean partition duration (default 5000)
//	split=P     per-site probability of landing in the first group (0.5)
//	hb=MS       failure-detector heartbeat interval (default 250)
//	suspect=MS  suspicion timeout (default 1000)
func ParsePartitions(s string, f *FaultPlan) error {
	opts := map[string]any{
		"mtbf":    &f.PartitionMTBFMS,
		"mean":    &f.PartitionMeanMS,
		"split":   &f.PartitionSplitProb,
		"hb":      &f.HeartbeatIntervalMS,
		"suspect": &f.SuspectAfterMS,
	}
	for _, part := range fields(s, ";") {
		if key, _, ok := strings.Cut(part, "="); ok && !strings.Contains(key, "@") {
			if err := parseSettings("partition", part, ";", opts); err != nil {
				return err
			}
			continue
		}
		head, at, heal, err := window(part, "GROUPS@AT+HEAL")
		if err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		ps := PartitionSchedule{AtMS: at, HealAfterMS: heal}
		for _, grp := range strings.Split(head, "|") {
			var ids []NodeID
			for _, s := range fields(grp, ",") {
				id, err := site(s)
				if err != nil {
					return fmt.Errorf("partition: %w", err)
				}
				ids = append(ids, id)
			}
			if len(ids) > 0 {
				ps.Groups = append(ps.Groups, ids)
			}
		}
		if len(ps.Groups) == 0 {
			return fmt.Errorf("partition: %q names no sites", part)
		}
		f.Partitions = append(f.Partitions, ps)
	}
	return nil
}

// ParseGraySites parses the command-line gray-failure syntax (caratsim
// -graysites) into the plan: semicolon-separated windows
//
//	SITE@AT+FOR*FACTOR        e.g. 1@60000+30000*3
//	SITE@AT+FOR*CPU/DISK      e.g. 1@60000+30000*3/2
//
// — site SITE runs with CPU (and disk) service times stretched by the
// factor from AT ms for FOR ms. A single factor degrades both resources;
// CPU/DISK sets them separately.
func ParseGraySites(s string, f *FaultPlan) error {
	const form = "SITE@AT+FOR*FACTOR"
	for _, part := range fields(s, ";") {
		timing, factors, ok := strings.Cut(part, "*")
		if !ok {
			return fmt.Errorf("graysites: %q wants %s", part, form)
		}
		head, at, dur, err := window(timing, form)
		if err != nil {
			return fmt.Errorf("graysites: %w", err)
		}
		g := GrayFailure{AtMS: at, ForMS: dur}
		if g.Site, err = site(head); err != nil {
			return fmt.Errorf("graysites: %w", err)
		}
		cpu, dsk, split := strings.Cut(factors, "/")
		if g.CPUFactor, err = parseFloat(cpu); err != nil {
			return fmt.Errorf("graysites: factor %q: %w", cpu, err)
		}
		g.DiskFactor = g.CPUFactor
		if split {
			if g.DiskFactor, err = parseFloat(dsk); err != nil {
				return fmt.Errorf("graysites: disk factor %q: %w", dsk, err)
			}
		}
		f.GraySites = append(f.GraySites, g)
	}
	return nil
}

// The resilience policies, shared field for field with the testbed: a
// Resilience configures the simulator's overload and failure
// countermeasures — retry with backoff (RetryPolicy), per-site admission
// control by multiprogramming level (AdmissionPolicy), and periodic
// retransmission of deadlock-detection probes for still-blocked
// transactions (ProbeRetryMS > 0; the countermeasure to probe loss). The
// zero value is fully inert: retry immediately, forever, as the paper's
// testbed did. All times are milliseconds; each field, with its default,
// is documented on the internal/testbed type.
type (
	Resilience      = testbed.Resilience
	RetryPolicy     = testbed.RetryPolicy
	AdmissionPolicy = testbed.AdmissionPolicy
)

// WithResilience attaches the resilience policies to the workload's
// simulator runs; the analytical model ignores them. Retry, admission and
// probe counters appear in NodeMetrics.
func (w Workload) WithResilience(r Resilience) Workload {
	w.w.Resilience = r
	return w
}

// ParseResilience parses the comma-separated key=value resilience syntax
// of the command-line tools (caratsim -resilience):
//
//	retries=N       submissions per transaction before abandoning (0 = unlimited)
//	backoff=MS      base exponential backoff between resubmissions
//	maxbackoff=MS   backoff cap (default 32× base)
//	mult=X          backoff multiplier (default 2)
//	jitter=F        symmetric backoff jitter fraction in [0,1]
//	mpl=N           per-site admission cap (0 = no gate)
//	abortrate=R     engage the gate only above R aborts/s (0 = always)
//	window=MS       abort-rate measurement window (default 1000)
//	shed=BOOL       reject excess arrivals instead of queueing them
//	shedbackoff=MS  re-arrival delay for shed arrivals (default 100)
//	probe=MS        re-initiate deadlock probes every MS while blocked
func ParseResilience(s string) (Resilience, error) {
	var r Resilience
	err := parseSettings("resilience", s, ",", map[string]any{
		"retries":     &r.Retry.MaxAttempts,
		"backoff":     &r.Retry.BaseBackoffMS,
		"maxbackoff":  &r.Retry.MaxBackoffMS,
		"mult":        &r.Retry.Multiplier,
		"jitter":      &r.Retry.JitterFrac,
		"mpl":         &r.Admission.MaxMPL,
		"abortrate":   &r.Admission.AbortRateThreshold,
		"window":      &r.Admission.WindowMS,
		"shed":        &r.Admission.Shed,
		"shedbackoff": &r.Admission.ShedBackoffMS,
		"probe":       &r.ProbeRetryMS,
	})
	return r, err
}

// ReplicationPolicy configures replicated granules in the simulator: every
// granule keeps Factor copies on distinct sites (primary first), writes
// take exclusive locks at the primary copy and propagate to all available
// replicas inside the commit protocol, and reads run the selected read
// mode. Factor 0 or 1 is fully inert — simulator runs are byte-identical
// with and without it. Replication is a testbed extension beyond the
// paper's single-copy system; the analytical model ignores it.
type ReplicationPolicy struct {
	// Factor is the replication factor R: copies per granule, including the
	// primary. Must not exceed the node count.
	Factor int
	// ReadQuorum makes reads confirm against a majority quorum of the
	// replica set instead of reading one copy (read-one, the default).
	ReadQuorum bool
}

// WithReplication attaches the replication policy to the workload's
// simulator runs; the analytical model ignores it. Replication counters
// appear in NodeMetrics.
func (w Workload) WithReplication(r ReplicationPolicy) Workload {
	mode := repl.ReadOne
	if r.ReadQuorum {
		mode = repl.ReadQuorum
	}
	w.w.Replication = repl.Policy{Factor: r.Factor, Read: mode}
	return w
}

// ParseReplication parses the comma-separated key=value replication syntax
// of the command-line tools (caratsim -repl):
//
//	R=N        replication factor (copies per granule; 1 = off)
//	read=MODE  read policy: one (default) or quorum
func ParseReplication(s string) (ReplicationPolicy, error) {
	var r ReplicationPolicy
	read := func(v string) error {
		mode, err := repl.ParseReadMode(v)
		if err == nil {
			r.ReadQuorum = mode == repl.ReadQuorum
		}
		return err
	}
	err := parseSettings("repl", s, ",", map[string]any{
		"R": &r.Factor, "r": &r.Factor, "factor": &r.Factor, "read": read,
	})
	return r, err
}

// AccessPattern selects how requests pick records at a site. The zero
// value is the paper's uniform sampling; construct skewed patterns with
// HotspotPattern or ZipfPattern. The analytical model always keeps the
// uniform assumption, so skewed patterns are simulator-only extensions.
type AccessPattern struct {
	p storage.Pattern
}

// UniformPattern is the paper's assumption: records chosen uniformly at
// random from the site's database.
func UniformPattern() AccessPattern { return AccessPattern{storage.Uniform{}} }

// HotspotPattern is the b–c rule: frac of accesses target the first hot
// fraction of each site's records (HotspotPattern(0.2, 0.8) is the classic
// 80/20 skew).
func HotspotPattern(hot, frac float64) AccessPattern {
	return AccessPattern{storage.Hotspot{Hot: hot, Frac: frac}}
}

// ZipfPattern draws record ranks from a bounded Zipf distribution with
// exponent theta (the YCSB-style default is 0.99; larger is more skewed).
func ZipfPattern(theta float64) AccessPattern {
	return AccessPattern{storage.NewZipf(theta)}
}

// PatternByName builds a pattern from its command-line name ("uniform",
// "hotspot", "zipf") and the relevant shape parameters; hot/frac apply to
// hotspot, theta to zipf.
func PatternByName(name string, hot, frac, theta float64) (AccessPattern, error) {
	switch name {
	case "", "uniform":
		return UniformPattern(), nil
	case "hotspot":
		return HotspotPattern(hot, frac), nil
	case "zipf":
		return ZipfPattern(theta), nil
	default:
		return AccessPattern{}, fmt.Errorf("carat: unknown access pattern %q (want uniform, hotspot or zipf)", name)
	}
}

// WithPattern selects the record-access pattern for every request in the
// workload (generalizes WithHotspot; see AccessPattern).
func (w Workload) WithPattern(p AccessPattern) Workload {
	w.w.Pattern = p.p
	return w
}

// WithZipf is shorthand for WithPattern(ZipfPattern(theta)).
func (w Workload) WithZipf(theta float64) Workload {
	return w.WithPattern(ZipfPattern(theta))
}

// BurstModulation makes an open arrival process bursty: an on-off
// modulator (a two-state MMPP) multiplies the arrival rate by Factor
// during exponentially distributed on-periods of mean OnMeanMS, separated
// by off-periods of mean OffMeanMS at the base rate. Factor <= 1 or zero
// sojourn means disable modulation.
type BurstModulation struct {
	Factor    float64
	OnMeanMS  float64
	OffMeanMS float64
}

// RampPoint is one knot of a piecewise-linear open arrival schedule.
type RampPoint struct {
	AtMS         float64
	LambdaPerSec float64
}

// OpenClass describes one transaction class of an open arrival mix. Zero
// Requests or RemoteFrac inherit the workload's transaction size and
// remote fraction; a nil Pattern inherits the workload's access pattern.
type OpenClass struct {
	// Type is the transaction type arrivals of this class run.
	Type TxnType
	// Weight is the class's share of arrivals (relative; zero counts as 1).
	Weight float64
	// Requests overrides the transaction size n for this class.
	Requests int
	// RemoteFrac overrides the share of requests sent to the slave site.
	RemoteFrac float64
	// Pattern overrides the record-access pattern.
	Pattern *AccessPattern
}

// OpenArrivals switches the simulator from the paper's closed terminals to
// an open workload: transactions arrive in per-site Poisson streams at the
// given rate instead of being resubmitted by a fixed user population. The
// zero value is inert. Closed users may coexist with open arrivals; the
// analytical model keeps using the closed population (open mode has no
// analytical counterpart — that contrast is the point).
type OpenArrivals struct {
	// LambdaPerSec is the system-wide arrival rate, split evenly across
	// sites; PerSiteLambdaPerSec (len = nodes) sets per-site rates instead.
	LambdaPerSec        float64
	PerSiteLambdaPerSec []float64
	// Burst optionally modulates the rate (MMPP on-off bursts).
	Burst BurstModulation
	// Ramp optionally replaces the constant rate with a piecewise-linear
	// system-wide schedule (flat before the first and after the last knot).
	Ramp []RampPoint
	// Classes is the arrival mix (empty: one class per transaction type the
	// topology supports, equal weights).
	Classes []OpenClass
}

// WithOpenArrivals attaches an open arrival process to the workload's
// simulator runs. An unknown class Type is reported when the simulation is
// built. Open-queue measurements appear in NodeMetrics' Open* fields.
func (w Workload) WithOpenArrivals(o OpenArrivals) Workload {
	oc := &testbed.OpenConfig{
		RatePerSec: o.LambdaPerSec,
		Burst: openload.Burst{
			Factor:    o.Burst.Factor,
			OnMeanMS:  o.Burst.OnMeanMS,
			OffMeanMS: o.Burst.OffMeanMS,
		},
	}
	oc.PerSiteRatePerSec = append(oc.PerSiteRatePerSec, o.PerSiteLambdaPerSec...)
	for _, p := range o.Ramp {
		oc.Ramp = append(oc.Ramp, testbed.OpenRampPoint{AtMS: p.AtMS, RatePerSec: p.LambdaPerSec})
	}
	for _, c := range o.Classes {
		k, err := c.Type.kind()
		if err != nil {
			k = testbed.TxnKind(99) // out of range: Config validation names it
		}
		tc := testbed.OpenClass{
			Kind:       k,
			Weight:     c.Weight,
			Requests:   c.Requests,
			RemoteFrac: c.RemoteFrac,
		}
		if c.Pattern != nil {
			tc.Pattern = c.Pattern.p
		}
		oc.Classes = append(oc.Classes, tc)
	}
	w.w.Open = oc
	return w
}

// WithoutClosedUsers removes the closed terminal population, leaving the
// open arrival process (attach one with WithOpenArrivals first) as the
// only submission source. The analytical model needs the closed users, so
// SolveModel fails on the result; Simulate and CapacitySweep accept it.
func (w Workload) WithoutClosedUsers() Workload {
	w.w.Users = nil
	return w
}

// ParseOpenClasses parses the command-line open-mix syntax (caratsim
// -classes): classes separated by ';', each a comma-separated list of
// key=value settings:
//
//	kind=TYPE      transaction type: LRO, LU, DRO or DU (required)
//	weight=X       relative share of arrivals (default 1)
//	n=N            requests per transaction (default: the workload's n)
//	rf=F           remote fraction for distributed types (default: workload's)
//	pattern=NAME   record access: uniform, hotspot or zipf (default: workload's)
//	hot=F          hotspot: hot fraction of records (default 0.2)
//	frac=F         hotspot: share of accesses aimed at the hot set (default 0.8)
//	theta=F        zipf: skew exponent (default 0.99)
//
// Example: 'kind=LRO,weight=3;kind=DU,weight=1,n=4,rf=0.25,pattern=zipf'.
func ParseOpenClasses(s string) ([]OpenClass, error) {
	var out []OpenClass
	for _, spec := range fields(s, ";") {
		var c OpenClass
		pattern, hot, frac, theta := "", 0.2, 0.8, 0.99
		err := parseSettings("classes", spec, ",", map[string]any{
			"kind": func(v string) error {
				c.Type = TxnType(v)
				_, err := c.Type.kind()
				return err
			},
			"weight":  &c.Weight,
			"n":       &c.Requests,
			"rf":      &c.RemoteFrac,
			"pattern": func(v string) error { pattern = v; return nil },
			"hot":     &hot,
			"frac":    &frac,
			"theta":   &theta,
		})
		if err != nil {
			return nil, err
		}
		if c.Type == "" {
			return nil, fmt.Errorf("classes: %q needs kind=TYPE", spec)
		}
		if pattern != "" {
			p, err := PatternByName(pattern, hot, frac, theta)
			if err != nil {
				return nil, fmt.Errorf("classes: %w", err)
			}
			c.Pattern = &p
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("classes: empty class list")
	}
	return out, nil
}

// SimOptions controls a simulation run.
type SimOptions struct {
	// Seed makes runs reproducible; equal seeds give identical results.
	Seed uint64
	// WarmupMS is discarded simulated time before measurement starts
	// (default 2 minutes).
	WarmupMS float64
	// DurationMS is total simulated time including warmup (default 62
	// minutes, giving a one-hour measurement window).
	DurationMS float64
	// Replications is the number of independent runs per experiment point
	// (0 or 1 means a single run, the historical behavior). Replication 0
	// uses Seed; replication r > 0 uses a seed derived through independent
	// substreams, so replications are uncorrelated yet individually
	// reproducible. With more than one replication, figures and tables
	// report across-replication means with 95% confidence half-widths, and
	// SimulateReplicated aggregates full measurements.
	Replications int
	// Workers bounds how many simulations run concurrently in replicated
	// mode (0 means GOMAXPROCS). The results are bit-identical for any
	// worker count.
	Workers int
	// Progress, when non-nil, receives (completed, total) run counts as a
	// replicated experiment advances. Calls are serialized.
	Progress func(done, total int)
}

func (o SimOptions) fill() experiment.SimOptions {
	e := experiment.DefaultSimOptions()
	if o.Seed != 0 {
		e.Seed = o.Seed
	}
	if o.WarmupMS > 0 {
		e.Warmup = o.WarmupMS
	}
	if o.DurationMS > 0 {
		e.Duration = o.DurationMS
	}
	e.Replications = o.Replications
	e.Workers = o.Workers
	e.Progress = o.Progress
	return e
}

// The simulator's per-site metric groups, shared field for field with the
// testbed's own results: NodeMetrics embeds the first three and
// Measurement embeds FabricMetrics, so their fields read directly
// (m.Nodes[0].Crashes, m.NetUtilization) and serialize flat.
type (
	// FaultMetrics: crashes, downtime, availability, crash and timeout
	// aborts, in-doubt resolutions and lost messages (WithFaults).
	FaultMetrics = testbed.FaultMetrics
	// ResilienceMetrics: admission-gate sheds, queueings, wait and peak
	// MPL, and deadlock probes lost and resent (WithResilience, probe loss).
	ResilienceMetrics = testbed.ResilienceMetrics
	// ReplOpenMetrics: failover reads, replica applies and quorum reads
	// (WithReplication), and the open queue's arrivals, offered rate,
	// population and response percentiles (WithOpenArrivals).
	ReplOpenMetrics = testbed.ReplOpenMetrics
	// FabricMetrics: messages, bytes, utilization, contention inflation
	// and queueing delay on the shared Ethernet (NewScaleConfig).
	FabricMetrics = testbed.FabricMetrics
)

// NodeMetrics reports one node's performance, in the units the paper's
// tables use.
type NodeMetrics struct {
	// TxnPerSec is TR-XPUT: committed transactions per second for users
	// homed at this node.
	TxnPerSec float64
	// TxnPerSecByType breaks TR-XPUT down by transaction type.
	TxnPerSecByType map[TxnType]float64
	// RecordsPerSec is the normalized record throughput of Figures 5 and 8.
	RecordsPerSec float64
	// CPUUtilization is Total-CPU, a fraction.
	CPUUtilization float64
	// DiskIOPerSec is Total-DIO: block I/Os per second including the log.
	DiskIOPerSec float64
	// DiskUtilization is the database disk's busy fraction.
	DiskUtilization float64
	// MeanResponseMS maps transaction type to mean response time in ms,
	// including aborted executions (simulation only; the model reports
	// per-chain response times through Predict).
	MeanResponseMS map[TxnType]float64
	// Deadlocks counts deadlock victims (simulation only).
	Deadlocks int64
	// SubmissionsPerCommit is the measured N_s of Eq. 4: executions per
	// commit, per type (simulation only; the model's N_s follows from its
	// AbortProbability as 1/(1-Pa)).
	SubmissionsPerCommit map[TxnType]float64
	// TxnPerSecCI is the 95% batch-means confidence half-width around
	// TxnPerSecByType, in transactions/second (simulation only; +Inf when
	// the run is too short for two batch windows).
	TxnPerSecCI map[TxnType]float64
	// P95ResponseMS is the 95th-percentile response time per type in ms
	// (simulation only).
	P95ResponseMS map[TxnType]float64

	// Fault metrics (simulation only; all zero without WithFaults).
	FaultMetrics
	// PartitionAborts counts aborted submissions of transactions homed
	// here whose participants were severed by a network partition;
	// PartitionShed counts submissions blocked before they began because
	// the home site could not reach (or suspected) a remote participant.
	PartitionAborts int64
	PartitionShed   int64
	// SuspectEvents counts suspicion transitions this site's failure
	// detector raised against peers.
	SuspectEvents int64
	// GrayMS is the time this site spent inside a gray-failure window.
	GrayMS float64
	// DegradedCommits counts commits recorded here while some site was
	// down — the goodput under partial outage.
	DegradedCommits int64

	// Retried and Abandoned count aborted submissions of transactions
	// homed here that were resubmitted vs given up, keyed by abort cause
	// ("deadlock", "crash", "timeout"; simulation only). Retried is live
	// even without WithResilience: the default policy resubmits every
	// abort.
	Retried   map[string]int64
	Abandoned map[string]int64
	// Admission and probe-retransmission metrics (simulation only; zero
	// unless the corresponding WithResilience knob or probe loss is set).
	ResilienceMetrics
	// ValidationAborts counts transactions this site's optimistic
	// validator rejected at commit (OCC runs only; always zero under
	// other protocols, whose conflicts surface as deadlocks or restarts).
	ValidationAborts int64

	// Replication and open-arrival metrics (simulation only; zero without
	// WithReplication and WithOpenArrivals respectively).
	ReplOpenMetrics
}

// DemandBreakdown decomposes one transaction type's commit cycle into the
// model's per-center demands (Eqs. 5–10), in milliseconds per cycle.
type DemandBreakdown struct {
	CPUMS        float64
	DiskMS       float64
	LockWaitMS   float64
	RemoteWaitMS float64
	CommitWaitMS float64
}

// Prediction is the analytical model's output.
type Prediction struct {
	Nodes []NodeMetrics
	// Iterations is the fixed-point iteration count; Converged reports
	// whether the tolerance was met.
	Iterations int
	Converged  bool
	// AbortProbability maps node -> type -> the model's P_a (Eq. 3).
	AbortProbability []map[TxnType]float64
	// Demands maps node -> type -> the per-cycle demand decomposition of
	// the type's home-side chain (coordinator chain for distributed
	// types).
	Demands []map[TxnType]DemandBreakdown
}

// Measurement is the simulator's output.
type Measurement struct {
	Nodes []NodeMetrics
	// WindowMS is the measurement window length.
	WindowMS float64
	// DegradedMS is the time within the window during which at least one
	// site was down (zero without WithFaults).
	DegradedMS float64
	// Partitions counts network partitions that took effect within the
	// window; PartitionMS is the time a partition was in effect.
	Partitions  int64
	PartitionMS float64

	// Shared-fabric metrics (all zero, and omitted from JSON, unless the
	// workload routes messages through the contended Ethernet fabric:
	// scale configurations built with NewScaleConfig).
	FabricMetrics
}

// Comparison pairs the two for one workload.
type Comparison struct {
	Workload  string
	N         int
	Predicted *Prediction
	Measured  *Measurement
}

// SolveModel analytically solves the queueing network model for the
// workload (Sections 3–6 of the paper).
func SolveModel(w Workload) (*Prediction, error) {
	m, err := w.w.Model()
	if err != nil {
		return nil, err
	}
	res, err := core.Solve(m)
	if err != nil {
		return nil, err
	}
	return predictionFrom(res), nil
}

func predictionFrom(res *core.Result) *Prediction {
	p := &Prediction{Iterations: res.Iterations, Converged: res.Converged}
	for _, s := range res.Sites {
		nm := NodeMetrics{
			TxnPerSec:       s.TotalTxnThroughput * 1000,
			TxnPerSecByType: map[TxnType]float64{},
			RecordsPerSec:   s.RecordThroughput * 1000,
			CPUUtilization:  s.CPUUtilization,
			DiskIOPerSec:    s.DiskIORate * 1000,
			DiskUtilization: s.DiskUtilization,
			MeanResponseMS:  map[TxnType]float64{},
		}
		pa := map[TxnType]float64{}
		dem := map[TxnType]DemandBreakdown{}
		for ty, cr := range s.Chains {
			if ty.Slave() {
				continue
			}
			tt := TxnType(ty.WorkloadName())
			nm.TxnPerSecByType[tt] += cr.Throughput * 1000
			nm.MeanResponseMS[tt] = cr.ResponseTime
			pa[tt] = cr.Pa
			dem[tt] = DemandBreakdown{
				CPUMS:        cr.CPUDemand,
				DiskMS:       cr.DiskDemand + cr.LogDemand,
				LockWaitMS:   cr.LWDemand,
				RemoteWaitMS: cr.RWDemand,
				CommitWaitMS: cr.CWDemand,
			}
		}
		p.Nodes = append(p.Nodes, nm)
		p.AbortProbability = append(p.AbortProbability, pa)
		p.Demands = append(p.Demands, dem)
	}
	return p
}

// Simulate runs the CARAT testbed simulator on the workload. A run that
// wedges, measuring less than its configured window, is an error.
func Simulate(w Workload, opts SimOptions) (*Measurement, error) {
	return simulate(w, opts, nil)
}

// simulate is the one run path behind Simulate and SimulateWithTrace:
// build the testbed configuration, run it with the optional trace
// callback, reject a wedged run, and convert the results.
func simulate(w Workload, opts SimOptions, trace func(testbed.TraceEvent)) (*Measurement, error) {
	e := opts.fill()
	cfg := w.w.TestbedConfig(e.Seed, e.Warmup, e.Duration)
	cfg.Trace = trace
	sys, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	res := sys.Run()
	if err := sys.CheckWindow(res); err != nil {
		return nil, err
	}
	return measurementFrom(res), nil
}

func measurementFrom(res testbed.Results) *Measurement {
	m := &Measurement{
		WindowMS:      res.Window,
		DegradedMS:    res.DegradedMS,
		Partitions:    res.Partitions,
		PartitionMS:   res.PartitionMS,
		FabricMetrics: res.FabricMetrics,
	}
	for _, n := range res.Nodes {
		nm := NodeMetrics{
			TxnPerSec:            n.TotalTxnThroughput,
			TxnPerSecByType:      map[TxnType]float64{},
			RecordsPerSec:        n.RecordThroughput,
			CPUUtilization:       n.CPUUtilization,
			DiskIOPerSec:         n.DiskIORate,
			DiskUtilization:      n.DBDiskUtilization,
			MeanResponseMS:       map[TxnType]float64{},
			Deadlocks:            n.LocalDeadlocks + n.GlobalDeadlocks,
			SubmissionsPerCommit: map[TxnType]float64{},
			TxnPerSecCI:          map[TxnType]float64{},
			P95ResponseMS:        map[TxnType]float64{},
			FaultMetrics:         n.FaultMetrics,
			PartitionAborts:      n.PartitionAborts,
			PartitionShed:        n.PartitionShed,
			SuspectEvents:        n.SuspectEvents,
			GrayMS:               n.GrayMS,
			DegradedCommits:      n.DegradedCommits,
			ResilienceMetrics:    n.ResilienceMetrics,
			ValidationAborts:     n.ValidationAborts,
			ReplOpenMetrics:      n.ReplOpenMetrics,
		}
		for cause, count := range n.Retried {
			if count > 0 {
				if nm.Retried == nil {
					nm.Retried = map[string]int64{}
				}
				nm.Retried[cause.String()] = count
			}
		}
		for cause, count := range n.Abandoned {
			if count > 0 {
				if nm.Abandoned == nil {
					nm.Abandoned = map[string]int64{}
				}
				nm.Abandoned[cause.String()] = count
			}
		}
		for _, k := range testbed.TxnKinds {
			tt := TxnType(k.String())
			if x := n.TxnThroughput[k]; x > 0 {
				nm.TxnPerSecByType[tt] = x
				nm.MeanResponseMS[tt] = n.MeanResponse[k]
				nm.TxnPerSecCI[tt] = n.ThroughputCI[k]
				nm.P95ResponseMS[tt] = n.P95Response[k]
			}
			if c := n.Commits[k]; c > 0 {
				nm.SubmissionsPerCommit[tt] = float64(n.Submissions[k]) / float64(c)
			}
		}
		m.Nodes = append(m.Nodes, nm)
	}
	return m
}

// ChaosOptions configures a randomized fault-injection audit: Runs
// simulator runs of the workload, each under a fault plan and resilience
// policy drawn from a stream seeded by Seed, each audited against the
// testbed's hard invariants (2PC atomicity, durability under restart
// replay, transaction conservation) and a goodput floor relative to a
// fault-free baseline. Zero fields take defaults (20 runs, 5 s warmup,
// 90 s duration, 5% goodput floor).
type ChaosOptions struct {
	Runs           int
	Seed           uint64
	WarmupMS       float64
	DurationMS     float64
	MinGoodputFrac float64
	// Partitions additionally draws scheduled network partitions and
	// failure-detector timings into every run's plan, arming the
	// split-brain invariants (cross-site atomicity, replica agreement,
	// post-heal reconciliation).
	Partitions bool
}

// ChaosRun is one randomized run's record.
type ChaosRun struct {
	Run        int
	Seed       uint64
	GoodputTPS float64
	// Violations lists every broken invariant; empty means clean.
	Violations []string
}

// ChaosReport is the outcome of a chaos audit.
type ChaosReport struct {
	// BaselineTPS is the workload's fault-free goodput, the reference for
	// the goodput floor.
	BaselineTPS float64
	Runs        []ChaosRun
}

// Violations flattens every run's violations, each prefixed with its run
// index and seed for replay.
func (r *ChaosReport) Violations() []string {
	var out []string
	for _, run := range r.Runs {
		for _, v := range run.Violations {
			out = append(out, fmt.Sprintf("run %d (seed %#x): %s", run.Run, run.Seed, v))
		}
	}
	return out
}

// RunChaos executes a randomized fault-injection audit over the workload.
// Any fault plan or resilience policy already attached to the workload is
// overridden per run by the drawn configurations. The audit is
// deterministic in (workload, options).
func RunChaos(w Workload, opts ChaosOptions) (*ChaosReport, error) {
	rep, err := experiment.RunChaos(w.w, experiment.ChaosOptions{
		Runs:           opts.Runs,
		Seed:           opts.Seed,
		Warmup:         opts.WarmupMS,
		Duration:       opts.DurationMS,
		MinGoodputFrac: opts.MinGoodputFrac,
		Partitions:     opts.Partitions,
	})
	if err != nil {
		return nil, err
	}
	out := &ChaosReport{BaselineTPS: rep.BaselineTPS}
	for _, run := range rep.Runs {
		out.Runs = append(out.Runs, ChaosRun{
			Run: run.Run, Seed: run.Seed, GoodputTPS: run.GoodputTPS, Violations: run.Violations,
		})
	}
	return out, nil
}

// CapacityReport is a full capacity sweep: per-λ CapacityPoint
// measurements (system-wide rates in transactions per second, response
// percentiles in ms) plus the derived saturation summary — the measured
// peak goodput, the knee, and the closed model's MVA bottleneck bound
// 1/D_max (zero when the workload has no closed users or cannot be
// modeled).
type (
	CapacityReport = experiment.CapacityResult
	CapacityPoint  = experiment.CapacityPoint
)

// CapacitySweep measures the workload's open-arrival saturation behavior:
// one simulation per rate in lambdasPerSec (system-wide arrivals per
// second, open arrivals replacing the closed terminals), reporting
// offered/committed/shed throughput and response percentiles per point,
// the saturation knee, and the closed model's bottleneck bound 1/D_max for
// comparison. The workload's closed users parameterize the bound and the
// default arrival mix; attach WithOpenArrivals first to control the mix or
// burstiness, and WithResilience to admission-control the overloaded
// points. Replications and Workers in opts apply per grid point; results
// are bit-identical for any worker count.
func CapacitySweep(w Workload, lambdasPerSec []float64, opts SimOptions) (*CapacityReport, error) {
	wl := w.w
	return experiment.CapacitySweep(func() workload.Workload { return wl }, lambdasPerSec, opts.fill())
}

// CCComparisonPoint is the measurement at one (protocol, contention, MPL)
// cell of the concurrency-control comparison lab: system-wide goodput,
// abort rate, mean response, and the paradigm-specific counters (deadlock
// victims and probe rounds exist only under locking, validation aborts
// only under OCC, and lock waits never under OCC or TO).
type CCComparisonPoint = experiment.CCSweepPoint

// CCComparisonReport is the full protocol × contention × MPL grid.
type CCComparisonReport struct {
	Protocols   []string
	Contentions []string
	MPLs        []int
	// Points is protocol-major, then contention, then MPL.
	Points []CCComparisonPoint
}

// CompareConcurrencyControls runs the contention-sweep lab: every protocol
// crossed with the standard contention levels (uniform, 80/20 hotspot,
// zipf-0.99) and every MPL multiplier in mpls (the MB4 mix replicated m
// times per site — 8m users), measuring throughput, abort rate and the
// paradigm-specific counters under identical assumptions. A nil or empty
// protocols list compares the default trio: 2PL with deadlock detection,
// QueCC and OCC. Simulation-only (the analytical model covers 2PL alone);
// results are bit-identical for any opts.Workers.
func CompareConcurrencyControls(protocols []ConcurrencyControl, mpls []int, opts SimOptions) (*CCComparisonReport, error) {
	var prots []testbed.CCProtocol
	if len(protocols) == 0 {
		prots = experiment.DefaultCCProtocols()
	} else {
		for _, p := range protocols {
			prots = append(prots, p.protocol())
		}
	}
	res, err := experiment.CCSweep(prots, experiment.DefaultCCContentions(), mpls, opts.fill())
	if err != nil {
		return nil, err
	}
	out := &CCComparisonReport{Contentions: res.Contentions, MPLs: res.MPLs, Points: res.Points}
	for _, p := range res.Protocols {
		out.Protocols = append(out.Protocols, p.String())
	}
	return out, nil
}

// PlacementStrategy names a data-directory placement strategy for the
// scale-out configurations: how the fleet's granule space maps onto home
// sites. Validate names with ParsePlacement.
type PlacementStrategy string

// The available strategies: uniform striping (granule g lives at site
// g mod N), contiguous range shards, and range shards with a home-site
// affinity fraction (each transaction keeps that share of its accesses in
// its home shard and scatters the rest).
const (
	HashPlacement     PlacementStrategy = "hash"
	RangePlacement    PlacementStrategy = "range"
	LocalityPlacement PlacementStrategy = "locality"
)

// ParsePlacement resolves a user-supplied strategy name —
// case-insensitively, accepting the canonical names and common aliases
// ("striped", "shard", "affinity", …). Unknown names return an error
// listing the valid strategies; it is the strict front door the CLIs use
// for their -placement flags.
func ParsePlacement(name string) (PlacementStrategy, error) {
	s, err := placement.Parse(name)
	if err != nil {
		return "", err
	}
	return PlacementStrategy(s.String()), nil
}

// NewScaleConfig builds an N-site scale-out workload: a homogeneous fleet
// whose granule space is mapped onto the sites by the placement directory,
// every inter-site message riding a shared contended Ethernet fabric, and
// open Poisson arrivals of lambdaPerSite transactions per second at each
// site. Locality is the affinity fraction for LocalityPlacement (ignored
// by the other strategies). Sites must be in [2, 512]; the 16/64/128-site
// grid of the scale sweep is the intended range.
func NewScaleConfig(sites int, strategy PlacementStrategy, locality, lambdaPerSite float64) (Workload, error) {
	if sites < 2 || sites > 512 {
		return Workload{}, fmt.Errorf("carat: scale config needs between 2 and 512 sites, got %d", sites)
	}
	s, err := placement.Parse(string(strategy))
	if err != nil {
		return Workload{}, err
	}
	if !(locality >= 0 && locality <= 1) {
		return Workload{}, fmt.Errorf("carat: locality must be in [0, 1], got %v", locality)
	}
	if !(lambdaPerSite > 0) || math.IsInf(lambdaPerSite, 1) {
		return Workload{}, fmt.Errorf("carat: per-site arrival rate must be positive and finite, got %v", lambdaPerSite)
	}
	return Workload{experiment.ScaleWorkload(s, sites, locality, lambdaPerSite)}, nil
}

// ScalePoint is the measurement at one (sites, locality, λ) cell of a
// scale sweep: throughput, and the per-center utilizations that locate
// the cell's bottleneck (cpu, disk, tm or wire).
type ScalePoint = experiment.ScalePoint

// ScaleReport is the full sites × locality × λ grid of one scale sweep.
type ScaleReport struct {
	Strategy   string
	Sites      []int
	Localities []float64
	// LambdasPerSite is the per-site offered-rate grid, txn/s.
	LambdasPerSite []float64
	// Points is sites-major, then locality, then λ.
	Points []ScalePoint
}

// ScaleSweep runs the scale-out study: NewScaleConfig fleets at every
// site count crossed with every locality level and per-site arrival rate,
// measuring where the bottleneck sits in each cell — the experiment that
// shows the binding resource migrating from the sites' CPUs onto the
// shared wire as the fleet grows and locality drops. Simulation-only;
// results are bit-identical for any opts.Workers.
func ScaleSweep(strategy PlacementStrategy, sites []int, localities, lambdasPerSite []float64, opts SimOptions) (*ScaleReport, error) {
	s, err := placement.Parse(string(strategy))
	if err != nil {
		return nil, err
	}
	res, err := experiment.ScaleSweep(s, sites, localities, lambdasPerSite, opts.fill())
	if err != nil {
		return nil, err
	}
	return &ScaleReport{
		Strategy:       res.Strategy.String(),
		Sites:          res.Sites,
		Localities:     res.Localities,
		LambdasPerSite: res.Lambdas,
		Points:         res.Points,
	}, nil
}

// Estimate is an across-replication estimate: the mean over independent
// runs and the two-sided 95% Student-t confidence half-width around it
// (+Inf with fewer than two replications).
type Estimate struct {
	Mean      float64
	HalfWidth float64
}

// ReplicatedNodeMetrics carries one node's across-replication estimates, in
// the units of NodeMetrics.
type ReplicatedNodeMetrics struct {
	TxnPerSec       Estimate
	TxnPerSecByType map[TxnType]Estimate
	RecordsPerSec   Estimate
	CPUUtilization  Estimate
	DiskIOPerSec    Estimate
	MeanResponseMS  map[TxnType]Estimate
}

// ReplicatedMeasurement is the output of SimulateReplicated: per-node
// estimates over the replications, plus every underlying run.
type ReplicatedMeasurement struct {
	// Replications is the number of independent runs aggregated.
	Replications int
	// Seeds[r] is the seed replication r ran with (replication 0 runs with
	// the base seed, so Runs[0] equals a plain Simulate with these options).
	Seeds []uint64
	// WindowMS is the per-run measurement window length.
	WindowMS float64
	Nodes    []ReplicatedNodeMetrics
	// Runs holds each replication's full measurement, in replication order.
	Runs []*Measurement
}

// SimulateReplicated runs opts.Replications independent simulations of the
// workload across opts.Workers parallel workers (each with its own
// simulation environment and derived seed) and aggregates them into means
// with 95% confidence half-widths. The output is bit-identical for any
// worker count.
func SimulateReplicated(w Workload, opts SimOptions) (*ReplicatedMeasurement, error) {
	e := opts.fill()
	rc, err := experiment.RunReplicated(w.w, e)
	if err != nil {
		return nil, err
	}
	rm := &ReplicatedMeasurement{
		Replications: len(rc.Reps),
		Seeds:        rc.Seeds,
	}
	for _, res := range rc.Reps {
		rm.Runs = append(rm.Runs, measurementFrom(res))
	}
	rm.WindowMS = rm.Runs[0].WindowMS
	for node := range rm.Runs[0].Nodes {
		nm := ReplicatedNodeMetrics{
			TxnPerSec:       estimateOver(rm.Runs, func(m *Measurement) float64 { return m.Nodes[node].TxnPerSec }),
			RecordsPerSec:   estimateOver(rm.Runs, func(m *Measurement) float64 { return m.Nodes[node].RecordsPerSec }),
			CPUUtilization:  estimateOver(rm.Runs, func(m *Measurement) float64 { return m.Nodes[node].CPUUtilization }),
			DiskIOPerSec:    estimateOver(rm.Runs, func(m *Measurement) float64 { return m.Nodes[node].DiskIOPerSec }),
			TxnPerSecByType: map[TxnType]Estimate{},
			MeanResponseMS:  map[TxnType]Estimate{},
		}
		for ty := range rm.Runs[0].Nodes[node].TxnPerSecByType {
			ty := ty
			nm.TxnPerSecByType[ty] = estimateOver(rm.Runs, func(m *Measurement) float64 { return m.Nodes[node].TxnPerSecByType[ty] })
			nm.MeanResponseMS[ty] = estimateOver(rm.Runs, func(m *Measurement) float64 { return m.Nodes[node].MeanResponseMS[ty] })
		}
		rm.Nodes = append(rm.Nodes, nm)
	}
	return rm, nil
}

// estimateOver tallies one scalar across the replications.
func estimateOver(runs []*Measurement, get func(*Measurement) float64) Estimate {
	var t stats.Tally
	for _, m := range runs {
		t.Add(get(m))
	}
	return Estimate{Mean: t.Mean(), HalfWidth: t.CI95()}
}

// Compare solves the model and runs the simulator for the workload.
func Compare(w Workload, opts SimOptions) (*Comparison, error) {
	c, err := experiment.Run(w.w, opts.fill())
	if err != nil {
		return nil, err
	}
	return &Comparison{
		Workload:  c.Workload,
		N:         c.N,
		Predicted: predictionFrom(c.Model),
		Measured:  measurementFrom(c.Measured),
	}, nil
}

// Calibration reports a fitted deadlock adjusting factor (Section 5.4.3).
type Calibration struct {
	// Factor is the fitted multiplier for the model's two-cycle deadlock
	// probability; pass it to WithDeadlockAdjust.
	Factor float64
	// FittedError and BaselineError are the mean relative TR-XPUT errors
	// with the fitted factor and with the uncalibrated factor of 1.
	FittedError   float64
	BaselineError float64
}

// CalibrateDeadlockFactor implements the paper's calibration remark: it
// simulates the named workload at each transaction size, then fits the
// model's deadlock adjusting factor to the measurements. Use the sizes
// where the model deviates (the paper's approximation degrades at large
// n): e.g. CalibrateDeadlockFactor("MB8", []int{12, 16, 20}, opts).
func CalibrateDeadlockFactor(name string, ns []int, opts SimOptions) (*Calibration, error) {
	mk, err := workloadMaker(name)
	if err != nil {
		return nil, err
	}
	res, err := experiment.Calibrate(mk, ns, opts.fill())
	if err != nil {
		return nil, err
	}
	return &Calibration{
		Factor:        res.Adjust,
		FittedError:   res.Error,
		BaselineError: res.BaselineError,
	}, nil
}

func workloadMaker(name string) (func(int) workload.Workload, error) {
	if _, err := workload.ByName(name, 4); err != nil {
		return nil, err
	}
	return func(n int) workload.Workload {
		wl, _ := workload.ByName(name, n)
		return wl
	}, nil
}

// ReproduceFigure regenerates one of the paper's figures (5–10) over the
// paper's transaction-size sweep, returning an ASCII rendering with the
// underlying numbers. Pass zero-value opts for defaults.
func ReproduceFigure(id int, opts SimOptions) (string, error) {
	f, err := buildFigure(id, opts)
	if err != nil {
		return "", err
	}
	return f.ASCII(), nil
}

// ReproduceFigureMarkdown is ReproduceFigure rendered as a Markdown table.
func ReproduceFigureMarkdown(id int, opts SimOptions) (string, error) {
	f, err := buildFigure(id, opts)
	if err != nil {
		return "", err
	}
	return f.Markdown(), nil
}

func buildFigure(id int, opts SimOptions) (*experiment.Figure, error) {
	e := opts.fill()
	ns := experiment.PaperNs()
	switch id {
	case 5:
		return experiment.Figure5(ns, e)
	case 6:
		return experiment.Figure6(ns, e)
	case 7:
		return experiment.Figure7(ns, e)
	case 8:
		return experiment.Figure8(ns, e)
	case 9:
		return experiment.Figure9(ns, e)
	case 10:
		return experiment.Figure10(ns, e)
	default:
		return nil, fmt.Errorf("carat: the paper has figures 5 through 10, not %d", id)
	}
}

// ReproduceExtensionFigure regenerates the repository's extension figure —
// mean LU response time, model vs simulation, over the paper's sweep.
func ReproduceExtensionFigure(opts SimOptions) (string, error) {
	f, err := experiment.FigureResponseTimes(experiment.PaperNs(), opts.fill())
	if err != nil {
		return "", err
	}
	return f.ASCII(), nil
}

// ReproduceExtensionFigureMarkdown is ReproduceExtensionFigure as Markdown.
func ReproduceExtensionFigureMarkdown(opts SimOptions) (string, error) {
	f, err := experiment.FigureResponseTimes(experiment.PaperNs(), opts.fill())
	if err != nil {
		return "", err
	}
	return f.Markdown(), nil
}

// ReproduceTable regenerates one of the paper's result tables (3, 4 or 5)
// over the paper's sweep; Table 1 (for given l, r and q it uses l=r=n/2,
// q≈4 with mild contention) and Table 2 (the input parameters) are also
// available for reference.
func ReproduceTable(id int, opts SimOptions) (string, error) {
	t, err := buildTable(id, opts)
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// ReproduceTableMarkdown is ReproduceTable rendered as a Markdown table.
func ReproduceTableMarkdown(id int, opts SimOptions) (string, error) {
	t, err := buildTable(id, opts)
	if err != nil {
		return "", err
	}
	return t.Markdown(), nil
}

func buildTable(id int, opts SimOptions) (*experiment.Table, error) {
	e := opts.fill()
	ns := experiment.PaperNs()
	switch id {
	case 1:
		return experiment.Table1(4, 4, 3.97, 0.05, 0.02, 0.01)
	case 2:
		return experiment.Table2(), nil
	case 3:
		return experiment.Table3(ns, e)
	case 4:
		return experiment.Table4(ns, e)
	case 5:
		return experiment.Table5(ns, e)
	default:
		return nil, fmt.Errorf("carat: no table %d (want 1-5)", id)
	}
}
