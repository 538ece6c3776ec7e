package carat

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestWorkloadUB6Facade(t *testing.T) {
	pred, err := SolveModel(WorkloadUB6(8))
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Converged || pred.Nodes[0].TxnPerSec <= 0 {
		t.Fatalf("UB6 model broken: %+v", pred.Nodes[0])
	}
	// UB6 is local-intensive: LRO+LU throughput dominates DRO+DU.
	n := pred.Nodes[0]
	local := n.TxnPerSecByType[LocalReadOnly] + n.TxnPerSecByType[LocalUpdate]
	dist := n.TxnPerSecByType[DistributedRead] + n.TxnPerSecByType[DistributedUpdate]
	if local <= dist {
		t.Fatalf("UB6 should be local-intensive: local %v vs distributed %v", local, dist)
	}
}

func TestWithTMSerializationModelFacade(t *testing.T) {
	off, err := SolveModel(WorkloadMB8(4))
	if err != nil {
		t.Fatal(err)
	}
	on, err := SolveModel(WorkloadMB8(4).WithTMSerializationModel())
	if err != nil {
		t.Fatal(err)
	}
	if on.Nodes[0].TxnPerSec >= off.Nodes[0].TxnPerSec {
		t.Fatalf("TM correction should lower throughput: %v vs %v",
			on.Nodes[0].TxnPerSec, off.Nodes[0].TxnPerSec)
	}
}

func TestWithNetworkDelayFacade(t *testing.T) {
	fast, err := SolveModel(WorkloadMB4(8))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := SolveModel(WorkloadMB4(8).WithNetworkDelay(100))
	if err != nil {
		t.Fatal(err)
	}
	fd := fast.Nodes[0].TxnPerSecByType[DistributedUpdate]
	sd := slow.Nodes[0].TxnPerSecByType[DistributedUpdate]
	if sd >= fd {
		t.Fatalf("100 ms hops should slow DU: %v vs %v", sd, fd)
	}
}

func TestWithRemoteFraction(t *testing.T) {
	// Pushing more of each DU transaction to the (slower-disk) slave node
	// must slow DU in both model and simulator; model and sim must agree
	// on the direction.
	base, err := SolveModel(WorkloadMB4(8))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := SolveModel(WorkloadMB4(8).WithRemoteFraction(0.75))
	if err != nil {
		t.Fatal(err)
	}
	bm := base.Nodes[0].TxnPerSecByType[DistributedUpdate]
	hm := heavy.Nodes[0].TxnPerSecByType[DistributedUpdate]
	if hm >= bm {
		t.Fatalf("model: 75%% remote should slow node A's DU: %v vs %v", hm, bm)
	}
	meas, err := Simulate(WorkloadMB4(8).WithRemoteFraction(0.75), quick)
	if err != nil {
		t.Fatal(err)
	}
	ms := meas.Nodes[0].TxnPerSecByType[DistributedUpdate]
	rel := (hm - ms) / ms
	if rel < -0.5 || rel > 0.8 {
		t.Fatalf("remote-heavy model %v vs sim %v diverge", hm, ms)
	}
}

func TestNewWorkloadMultiRemote(t *testing.T) {
	users := []User{
		{Type: LocalUpdate, Home: 0},
		{Type: DistributedUpdate, Home: 0, Remotes: []int{1, 2}},
		{Type: DistributedUpdate, Home: 1, Remotes: []int{0, 2}},
		{Type: DistributedUpdate, Home: 2, Remotes: []int{0, 1}},
	}
	wl, err := NewWorkload("tri", 3, users, 8)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(wl, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Predicted.Nodes) != 3 || len(cmp.Measured.Nodes) != 3 {
		t.Fatal("expected three nodes on both sides")
	}
	for i := range cmp.Predicted.Nodes {
		mo := cmp.Predicted.Nodes[i].TxnPerSecByType[DistributedUpdate]
		me := cmp.Measured.Nodes[i].TxnPerSecByType[DistributedUpdate]
		if mo <= 0 || me <= 0 {
			t.Fatalf("node %d: DU stalled (model %v, sim %v)", i, mo, me)
		}
		rel := (mo - me) / me
		if rel < -0.5 || rel > 0.8 {
			t.Fatalf("node %d: model %v vs sim %v diverge", i, mo, me)
		}
	}
}

func TestReproduceMarkdown(t *testing.T) {
	out, err := ReproduceTableMarkdown(2, quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| Node | Type |") && !strings.Contains(out, "| --- |") {
		t.Fatalf("not a markdown table:\n%s", out)
	}
	if _, err := ReproduceTableMarkdown(9, quick); err == nil {
		t.Fatal("bad table id must fail")
	}
	if _, err := ReproduceFigureMarkdown(99, quick); err == nil {
		t.Fatal("bad figure id must fail")
	}
}

func TestReproduceFigureMarkdownQuick(t *testing.T) {
	tiny := SimOptions{Seed: 1, WarmupMS: 5_000, DurationMS: 125_000}
	out, err := ReproduceFigureMarkdown(6, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "|") {
		t.Fatalf("markdown figure broken:\n%s", out)
	}
}

func TestSimulateReplicatedFacade(t *testing.T) {
	opts := SimOptions{
		Seed:         1,
		WarmupMS:     10_000,
		DurationMS:   130_000,
		Replications: 3,
		Workers:      2,
	}
	rm, err := SimulateReplicated(WorkloadMB4(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Replications != 3 || len(rm.Seeds) != 3 || len(rm.Runs) != 3 {
		t.Fatalf("replication bookkeeping wrong: %d reps, %d seeds, %d runs",
			rm.Replications, len(rm.Seeds), len(rm.Runs))
	}
	if rm.Seeds[0] != opts.Seed {
		t.Fatalf("Seeds[0] = %d, want the base seed %d", rm.Seeds[0], opts.Seed)
	}
	for i, node := range rm.Nodes {
		if node.TxnPerSec.Mean <= 0 {
			t.Fatalf("node %d: nonpositive mean throughput", i)
		}
		if node.TxnPerSec.HalfWidth < 0 {
			t.Fatalf("node %d: negative CI half-width", i)
		}
		if node.CPUUtilization.Mean <= 0 || node.CPUUtilization.Mean > 1 {
			t.Fatalf("node %d: CPU utilization %v out of range", i, node.CPUUtilization.Mean)
		}
	}
	// Replication 0 must reproduce the plain Simulate run exactly.
	single, err := Simulate(WorkloadMB4(8), SimOptions{Seed: 1, WarmupMS: 10_000, DurationMS: 130_000})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Runs[0].Nodes[0].TxnPerSec != single.Nodes[0].TxnPerSec {
		t.Fatalf("replication 0 throughput %v != serial Simulate %v",
			rm.Runs[0].Nodes[0].TxnPerSec, single.Nodes[0].TxnPerSec)
	}
}

// TestParseConcurrencyControl pins the strict -cc front door: every
// canonical name and the documented aliases resolve case-insensitively,
// and unknown names are rejected with an error listing the valid modes.
func TestParseConcurrencyControl(t *testing.T) {
	cases := map[string]ConcurrencyControl{
		"2PL":                TwoPhaseLocking,
		"2pl-detect":         TwoPhaseLocking,
		"wait-die":           WaitDie,
		"WOUND-WAIT":         WoundWait,
		"timestamp-ordering": TimestampOrdering,
		"to":                 TimestampOrdering,
		"occ":                OptimisticCC,
		"Optimistic":         OptimisticCC,
		"QueCC":              QueCC,
		"deterministic":      QueCC,
		" quecc ":            QueCC,
	}
	for name, want := range cases {
		got, err := ParseConcurrencyControl(name)
		if err != nil {
			t.Fatalf("ParseConcurrencyControl(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("ParseConcurrencyControl(%q) = %q, want %q", name, got, want)
		}
	}
	for _, bad := range []string{"", "2pc", "mvcc", "locking"} {
		_, err := ParseConcurrencyControl(bad)
		if err == nil {
			t.Fatalf("ParseConcurrencyControl(%q) accepted", bad)
		}
		for _, mode := range []string{"2PL-detect", "OCC", "QueCC"} {
			if !strings.Contains(err.Error(), mode) {
				t.Fatalf("error %q does not list valid mode %s", err, mode)
			}
		}
	}
}

// TestSimulateOCCAndQueCCFacade drives the two new paradigms end to end
// through the public facade: both make progress, OCC reports its
// validation aborts (with retry accounting under the "validation" cause),
// and QueCC reports none.
func TestSimulateOCCAndQueCCFacade(t *testing.T) {
	opts := SimOptions{Seed: 3, WarmupMS: 20_000, DurationMS: 320_000}
	wl := WorkloadMB4(8).WithDatabaseSize(400)
	occ, err := Simulate(wl.WithConcurrencyControl(OptimisticCC), opts)
	if err != nil {
		t.Fatal(err)
	}
	var vAborts, retried int64
	for i, node := range occ.Nodes {
		if node.TxnPerSec <= 0 {
			t.Fatalf("node %d stalled under OCC", i)
		}
		vAborts += node.ValidationAborts
		retried += node.Retried["validation"]
	}
	if vAborts == 0 || retried == 0 {
		t.Fatalf("OCC on a contended database: %d validation aborts, %d retried — want both > 0",
			vAborts, retried)
	}
	qc, err := Simulate(wl.WithConcurrencyControl(QueCC), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range qc.Nodes {
		if node.TxnPerSec <= 0 {
			t.Fatalf("node %d stalled under QueCC", i)
		}
		if node.Deadlocks != 0 || node.ValidationAborts != 0 {
			t.Fatalf("node %d: QueCC reports %d deadlocks, %d validation aborts — want zero",
				i, node.Deadlocks, node.ValidationAborts)
		}
	}
}

// TestCompareConcurrencyControlsFacade smoke-tests the comparison lab's
// facade entry: the default trio over two MPLs, full grid out.
func TestCompareConcurrencyControlsFacade(t *testing.T) {
	report, err := CompareConcurrencyControls(nil, []int{1, 2},
		SimOptions{Seed: 99, WarmupMS: 20_000, DurationMS: 140_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Protocols) != 3 || len(report.Contentions) != 3 {
		t.Fatalf("default grid is %v × %v, want 3 protocols × 3 contentions",
			report.Protocols, report.Contentions)
	}
	if want := 3 * 3 * 2; len(report.Points) != want {
		t.Fatalf("got %d points, want %d", len(report.Points), want)
	}
	for _, p := range report.Points {
		if p.CommittedTPS <= 0 {
			t.Fatalf("%s/%s/%d: no throughput", p.Protocol, p.Contention, p.Users)
		}
	}
	if _, err := CompareConcurrencyControls(nil, nil, SimOptions{}); err == nil {
		t.Fatal("empty MPL list accepted")
	}
}

// TestFacadeRejectsNonFinite pins that the command-line parsers and the
// scale-config and open-arrival front doors refuse NaN and ±Inf instead of
// accepting a value that silently disables a feature or spins the
// simulator forever.
func TestFacadeRejectsNonFinite(t *testing.T) {
	var fp FaultPlan
	parsers := map[string]error{}
	_, parsers["faults loss=NaN"] = ParseFaultPlan("loss=NaN")
	_, parsers["faults crash time Inf"] = ParseFaultPlan("crash=1@Inf+5000")
	_, parsers["faults crash duration NaN"] = ParseFaultPlan("crash=1@0+NaN")
	parsers["partition mtbf=NaN"] = ParsePartitions("mtbf=NaN", &fp)
	parsers["partition heal Inf"] = ParsePartitions("0|1@1000+Inf", &fp)
	parsers["graysites factor NaN"] = ParseGraySites("1@0+1000*NaN", &fp)
	parsers["graysites disk factor Inf"] = ParseGraySites("1@0+1000*2/Inf", &fp)
	_, parsers["resilience jitter=NaN"] = ParseResilience("jitter=NaN")
	_, parsers["classes weight=Inf"] = ParseOpenClasses("kind=LU,weight=Inf")
	_, parsers["scale locality NaN"] = NewScaleConfig(16, HashPlacement, math.NaN(), 1)
	_, parsers["scale lambda NaN"] = NewScaleConfig(16, HashPlacement, 0.5, math.NaN())
	_, parsers["scale lambda Inf"] = NewScaleConfig(16, HashPlacement, 0.5, math.Inf(1))
	opts := SimOptions{Seed: 1, WarmupMS: 1_000, DurationMS: 10_000}
	open := WorkloadMB4(8).WithoutClosedUsers()
	_, parsers["open lambda NaN"] = Simulate(open.WithOpenArrivals(OpenArrivals{LambdaPerSec: math.NaN()}), opts)
	_, parsers["open lambda Inf"] = Simulate(open.WithOpenArrivals(OpenArrivals{LambdaPerSec: math.Inf(1)}), opts)
	_, parsers["capacity lambda NaN"] = CapacitySweep(WorkloadMB4(8), []float64{math.NaN()}, opts)
	for name, err := range parsers {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if len(fp.Partitions)+len(fp.GraySites) != 0 || fp.PartitionMTBFMS != 0 {
		t.Errorf("rejected entries reached the plan: %+v", fp)
	}
}

// TestParsersFillEveryKey sets every key of the fault, partition,
// gray-failure, resilience, replication and open-class syntaxes, each to a
// distinct value, and checks that each value lands in its own field.
func TestParsersFillEveryKey(t *testing.T) {
	hot, zipf := HotspotPattern(0.1, 0.7), ZipfPattern(0.5)
	cases := []struct {
		name  string
		parse func() (any, error)
		want  any
	}{
		{
			name: "ParseFaultPlan",
			parse: func() (any, error) {
				return ParseFaultPlan("crash=1@100+200,crash=0@300+400,mttf=1,mttr=2,loss=0.03,retrans=4," +
					"delayp=0.05,delayms=6,prepto=7,lockto=8,backoff=9,probeloss=0.1,probeout=11,fseed=12")
			},
			want: FaultPlan{
				Seed:              12,
				Crashes:           []SiteCrash{{Site: 1, AtMS: 100, DownForMS: 200}, {Site: 0, AtMS: 300, DownForMS: 400}},
				CrashMTTFMS:       1,
				CrashMTTRMS:       2,
				MsgLossProb:       0.03,
				MsgRetransmitMS:   4,
				MsgExtraDelayProb: 0.05,
				MsgExtraDelayMS:   6,
				PrepareTimeoutMS:  7,
				LockWaitTimeoutMS: 8,
				RetryBackoffMS:    9,
				ProbeLossProb:     0.1,
				ProbeLossUntilMS:  11,
			},
		},
		{
			name: "ParsePartitions",
			parse: func() (any, error) {
				var f FaultPlan
				err := ParsePartitions("0,1|2@100+200;mtbf=1;mean=2;split=0.3;hb=4;suspect=5", &f)
				return f, err
			},
			want: FaultPlan{
				Partitions:          []PartitionSchedule{{Groups: [][]NodeID{{0, 1}, {2}}, AtMS: 100, HealAfterMS: 200}},
				PartitionMTBFMS:     1,
				PartitionMeanMS:     2,
				PartitionSplitProb:  0.3,
				HeartbeatIntervalMS: 4,
				SuspectAfterMS:      5,
			},
		},
		{
			name: "ParseGraySites",
			parse: func() (any, error) {
				var f FaultPlan
				err := ParseGraySites("1@100+200*3;0@300+400*2/5", &f)
				return f, err
			},
			want: FaultPlan{GraySites: []GrayFailure{
				{Site: 1, AtMS: 100, ForMS: 200, CPUFactor: 3, DiskFactor: 3},
				{Site: 0, AtMS: 300, ForMS: 400, CPUFactor: 2, DiskFactor: 5},
			}},
		},
		{
			name: "ParseResilience",
			parse: func() (any, error) {
				return ParseResilience("retries=1,backoff=2,maxbackoff=3,mult=4,jitter=0.5,mpl=6," +
					"abortrate=7,window=8,shed=true,shedbackoff=9,probe=10")
			},
			want: Resilience{
				Retry: RetryPolicy{MaxAttempts: 1, BaseBackoffMS: 2, MaxBackoffMS: 3, Multiplier: 4, JitterFrac: 0.5},
				Admission: AdmissionPolicy{
					MaxMPL: 6, AbortRateThreshold: 7, WindowMS: 8, Shed: true, ShedBackoffMS: 9,
				},
				ProbeRetryMS: 10,
			},
		},
		{
			name: "ParseReplication",
			parse: func() (any, error) {
				var out []ReplicationPolicy
				for _, s := range []string{"R=2,read=quorum", "r=3", "factor=4,read=quorum,read=one"} {
					r, err := ParseReplication(s)
					if err != nil {
						return nil, err
					}
					out = append(out, r)
				}
				return out, nil
			},
			want: []ReplicationPolicy{{Factor: 2, ReadQuorum: true}, {Factor: 3}, {Factor: 4}},
		},
		{
			name: "ParseOpenClasses",
			parse: func() (any, error) {
				return ParseOpenClasses("kind=DU,weight=2,n=3,rf=0.25,pattern=hotspot,hot=0.1,frac=0.7;" +
					"kind=LRO,pattern=zipf,theta=0.5")
			},
			want: []OpenClass{
				{Type: DistributedUpdate, Weight: 2, Requests: 3, RemoteFrac: 0.25, Pattern: &hot},
				{Type: LocalReadOnly, Pattern: &zipf},
			},
		},
	}
	for _, c := range cases {
		got, err := c.parse()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

// TestWithFaultsKeepsPrivateCopy pins that WithFaults copies the plan's
// slices: changing the caller's crash, gray-failure and partition entries
// after the call must not change the workload's runs.
func TestWithFaultsKeepsPrivateCopy(t *testing.T) {
	plan := func() FaultPlan {
		f, err := ParseFaultPlan("crash=1@10000+5000")
		if err == nil {
			err = ParsePartitions("0|1@20000+10000", &f)
		}
		if err == nil {
			err = ParseGraySites("0@5000+20000*3", &f)
		}
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fleet, err := NewScaleConfig(4, HashPlacement, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := SimOptions{Seed: 3, WarmupMS: 2_000, DurationMS: 40_000}
	simulate := func(w Workload) *Measurement {
		t.Helper()
		m, err := Simulate(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := simulate(fleet.WithFaults(plan()))

	f := plan()
	w := fleet.WithFaults(f)
	f.Crashes[0] = SiteCrash{Site: 2, AtMS: 3000, DownForMS: 30000}
	f.GraySites[0].Site = 3
	f.Partitions[0].Groups[0][0] = 2
	if reflect.DeepEqual(simulate(fleet.WithFaults(f)), want) {
		t.Fatal("the changed plan runs like the original; the test cannot see a shared slice")
	}
	if got := simulate(w); !reflect.DeepEqual(got, want) {
		t.Errorf("changing the caller's plan after WithFaults changed the run:\n got %+v\nwant %+v", got, want)
	}
}

// TestSimulateFailsWedgedRun pins that the facade's run path, behind
// Simulate and SimulateWithTrace, fails a wedged run as every sweep does:
// the closed three-site mix with a one-slot DM pool wedges in warm-up and
// measures a zero window.
func TestSimulateFailsWedgedRun(t *testing.T) {
	var users []User
	for site := 0; site < 3; site++ {
		other := (site + 1) % 3
		users = append(users,
			User{Type: LocalReadOnly, Home: site},
			User{Type: LocalUpdate, Home: site},
			User{Type: DistributedRead, Home: site, Remote: other},
			User{Type: DistributedUpdate, Home: site, Remote: other},
		)
	}
	w, err := NewWorkload("MB-3site", 3, users, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.w.DMServers = 1
	opts := SimOptions{Seed: 1, WarmupMS: 10_000, DurationMS: 60_000}
	m, err := Simulate(w, opts)
	if err == nil {
		t.Fatalf("a wedged run returned no error, window %v ms", m.WindowMS)
	}
	for _, want := range []string{"wedged", "0 ms window", "50000 ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if _, err := SimulateWithTrace(w, opts, func(TraceEvent) {}); err == nil {
		t.Fatal("a wedged traced run returned no error")
	}
}
