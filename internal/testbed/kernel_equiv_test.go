package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"carat/internal/cc"
	"carat/internal/comm"
	"carat/internal/disk"
	"carat/internal/openload"
	"carat/internal/placement"
	"carat/internal/repl"
	"carat/internal/storage"
)

var updateKernelPins = flag.Bool("update-kernel-pins", false,
	"rewrite the kernel equivalence pins from the current kernel's output")

// kernelPins stores one SHA-256 per reference scenario, computed over the
// scenario's full protocol trace (exact float bits) and its Results. The
// first three were generated by the seed goroutine-handoff kernel, the
// next five by the kernel that preceded visit chains, the next two by
// the request chain that stopped at every access and the last by the
// request chain that began at the DM burst; the suite therefore proves
// any replacement scheduler produces byte-identical event streams, not
// merely equal summary statistics.
type kernelPins struct {
	Closed     string `json:"closed_mb4_n8"`
	Replicated string `json:"replicated_r2_faults"`
	Open       string `json:"open_mmpp_classes"`
	Buffer     string `json:"buffer_hits_mb4_n8"`
	Gray       string `json:"gray_cpu_disk"`
	Partition  string `json:"partition_mid_request"`
	QueCC      string `json:"quecc_planned"`
	Deadlocks  string `json:"deadlocks_ub6_n16"`
	WoundWait  string `json:"wound_wait_mb4_n8"`
	WaitDie    string `json:"wait_die_mb4_n8"`
	Network    string `json:"network_fabric_placement"`
}

// hashTrace folds one trace event into the running digest with exact bit
// patterns: any change to event order, timing, or payload changes the hash.
func hashTrace(h *traceHasher, ev TraceEvent) {
	fmt.Fprintf(h, "%016x %d %d %d %d %d\n",
		math.Float64bits(ev.T), ev.Txn, ev.Kind, ev.Node, ev.Ev, ev.Granule)
}

type traceHasher struct {
	n int
	h [32]byte
	w interface{ Write(p []byte) (int, error) }
}

func newTraceHasher() (*traceHasher, func() string) {
	sum := sha256.New()
	th := &traceHasher{w: sum}
	return th, func() string { return hex.EncodeToString(sum.Sum(nil)) }
}

func (t *traceHasher) Write(p []byte) (int, error) {
	t.n++
	return t.w.Write(p)
}

// runScenario executes one reference configuration with tracing wired into
// the digest and folds the final Results in as well.
func runScenario(t *testing.T, cfg Config) (digest string, events int, res Results) {
	t.Helper()
	th, sum := newTraceHasher()
	cfg.Trace = func(ev TraceEvent) { hashTrace(th, ev) }
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res = sys.Run()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Write(blob); err != nil {
		t.Fatal(err)
	}
	return sum(), th.n, res
}

func closedScenario() Config {
	cfg := twoNodeConfig(mb4Users(), 8, 424242)
	cfg.Warmup = 30_000
	cfg.Duration = 330_000
	cfg.Layout = storage.Layout{Granules: 400, RecordsPerGran: 6} // force lock conflicts
	return cfg
}

func replicatedScenario() Config {
	cfg := replTestConfig(23, repl.Policy{Factor: 2, Read: repl.ReadQuorum})
	cfg.Faults = activePlan()
	return cfg
}

func openScenario() Config {
	cfg := openConfig(1.5, 4, 7)
	cfg.Open.Burst = openload.Burst{OnMeanMS: 5_000, OffMeanMS: 20_000, Factor: 3}
	cfg.Open.Classes = []OpenClass{
		{Kind: LU, Weight: 2},
		{Kind: DU, Weight: 1, Requests: 8, RemoteFrac: 0.25},
		{Kind: LRO, Weight: 1},
	}
	cfg.Warmup = 20_000
	cfg.Duration = 220_000
	return cfg
}

// bufferScenario is the contended closed MB4 run with a buffer pool that
// absorbs a third of the granule reads, so every granule access draws a hit.
func bufferScenario() Config {
	cfg := closedScenario()
	cfg.BufferHitRatio = 0.3
	return cfg
}

// grayScenario slows site 1's CPU and disks for two simulated minutes.
func grayScenario() Config {
	cfg := faultTestConfig(13)
	cfg.Faults = &FaultPlan{GraySites: []GrayFailure{
		{Site: 1, AtMS: 60_000, ForMS: 120_000, CPUFactor: 3, DiskFactor: 2},
	}}
	return cfg
}

// partitionScenario splits the two sites at random every few seconds
// while distributed requests are in flight, so requests find their
// executing site cut off mid-request: at a lock request and between a
// granule's DMIO burst and its I/O.
func partitionScenario() Config {
	cfg := faultTestConfig(5)
	cfg.Faults = partitionPlan()
	cfg.Faults.PartitionMTBFMS = 3_000
	cfg.Faults.PartitionMeanMS = 500
	return cfg
}

// queccScenario runs QueCC, which draws every request's granules at
// planning time.
func queccScenario() Config {
	cfg := ccConfig(cc.QueueOrdered, 8, 23)
	cfg.Duration = 300_000
	return cfg
}

// deadlockScenario is a closed UB6 run at n=16 on a small database, where
// local and global deadlocks abort many submissions.
func deadlockScenario() Config {
	var users []UserSpec
	for node := NodeID(0); node < 2; node++ {
		users = append(users,
			UserSpec{Kind: LRO, Home: node}, UserSpec{Kind: LRO, Home: node},
			UserSpec{Kind: LU, Home: node}, UserSpec{Kind: LU, Home: node},
			UserSpec{Kind: DRO, Home: node, Remote: 1 - node},
			UserSpec{Kind: DU, Home: node, Remote: 1 - node})
	}
	cfg := twoNodeConfig(users, 16, 99)
	cfg.Warmup = 30_000
	cfg.Duration = 330_000
	cfg.Layout = storage.Layout{Granules: 400, RecordsPerGran: 6}
	return cfg
}

// woundWaitScenario is the contended closed MB4 run under wound-wait, where
// an older requester wounds the younger transactions it would wait for:
// its access is granted or blocks with victims.
func woundWaitScenario() Config {
	cfg := closedScenario()
	cfg.Concurrency = cc.TwoPhaseWoundWait
	return cfg
}

// waitDieScenario is the contended closed MB4 run under wait-die, where a
// requester that would wait for an older transaction restarts.
func waitDieScenario() Config {
	cfg := closedScenario()
	cfg.Concurrency = cc.TwoPhaseWaitDie
	return cfg
}

// networkScenario is a closed four-site run on a contended shared
// Ethernet fabric, with the data directory routing each distributed
// request: every remote request crosses the fabric with a nonzero,
// load-dependent delay.
func networkScenario() Config {
	nodes := make([]NodeConfig, 4)
	var users []UserSpec
	for i := range nodes {
		nodes[i] = NodeConfig{DBDisk: disk.ProfileRM05(), DMServers: 16}
		home := NodeID(i)
		users = append(users, UserSpec{Kind: LU, Home: home},
			UserSpec{Kind: DRO, Home: home}, UserSpec{Kind: DU, Home: home})
	}
	eth := comm.DefaultEthernet()
	eth.Hosts = len(nodes)
	eth.BandwidthBitsPerMS = 2.94e3
	return Config{
		Nodes:             nodes,
		Users:             users,
		Params:            DefaultParams(len(nodes)),
		Layout:            storage.Layout{Granules: 400, RecordsPerGran: 6},
		RequestsPerTxn:    8,
		RecordsPerRequest: 2,
		Network:           eth,
		Placement:         &PlacementConfig{Strategy: placement.Hash},
		Seed:              31,
		Warmup:            20_000,
		Duration:          200_000,
	}
}

// TestKernelEquivalencePins runs the reference scenarios and checks every
// trace stream and Results blob against the pins captured from the seed
// kernel (the first three), from the kernel that preceded visit chains
// (the next five), from the request chain that stopped at every
// concurrency-control access (the next two), or from the request chain
// that began at the DM burst (the last). The first three are closed
// contended MB4, replicated R=2 under a fault plan, and open MMPP arrivals
// with a class mix; the rest cover the request-path branches those miss:
// buffer hits, a gray failure of CPU and disk, a partition mid-request,
// QueCC's pre-drawn granules, a deadlock-heavy closed run, and the access
// outcomes other than a plain grant or block — wound-wait's victims and
// wait-die's restarts — and remote requests that cross a shared fabric
// with a nonzero delay. A scheduler change that reorders even one event, or
// shifts one RNG draw, fails here.
func TestKernelEquivalencePins(t *testing.T) {
	path := filepath.Join("testdata", "kernel_equiv_pins.json")
	got := kernelPins{}
	scenarios := []struct {
		name string
		pin  *string
		cfg  Config
		// exercised reports whether the run reached the branch the
		// scenario exists for.
		exercised func(Results) bool
	}{
		{"closed", &got.Closed, closedScenario(), nil},
		{"replicated", &got.Replicated, replicatedScenario(), func(r Results) bool {
			var failover, quorum int64
			for _, nr := range r.Nodes {
				failover += nr.FailoverReads
				quorum += nr.QuorumReads
			}
			return failover > 0 && quorum > 0
		}},
		{"open", &got.Open, openScenario(), nil},
		{"buffer", &got.Buffer, bufferScenario(), nil},
		{"gray", &got.Gray, grayScenario(), func(r Results) bool { return r.Nodes[1].GrayMS > 0 }},
		{"partition", &got.Partition, partitionScenario(), func(r Results) bool {
			return r.Nodes[0].PartitionAborts+r.Nodes[1].PartitionAborts > 0
		}},
		{"quecc", &got.QueCC, queccScenario(), nil},
		{"deadlocks", &got.Deadlocks, deadlockScenario(), func(r Results) bool {
			var n int64
			for _, nr := range r.Nodes {
				n += nr.LocalDeadlocks + nr.GlobalDeadlocks
			}
			return n >= 50
		}},
		{"wound-wait", &got.WoundWait, woundWaitScenario(), func(r Results) bool {
			// Wound-wait never restarts the requester: every abort is a
			// wounded victim.
			var aborts int64
			for _, nr := range r.Nodes {
				for _, k := range []TxnKind{LRO, LU, DRO, DU} {
					aborts += nr.Submissions[k] - nr.Commits[k]
				}
			}
			return aborts > 0
		}},
		{"wait-die", &got.WaitDie, waitDieScenario(), func(r Results) bool {
			return r.Nodes[0].LocalDeadlocks+r.Nodes[1].LocalDeadlocks > 0
		}},
		{"network", &got.Network, networkScenario(), func(r Results) bool { return r.NetMessages > 0 }},
	}
	for _, sc := range scenarios {
		var n int
		var res Results
		*sc.pin, n, res = runScenario(t, sc.cfg)
		if n < 100 {
			t.Fatalf("scenario %s produced only %d trace events; too idle to pin anything", sc.name, n)
		}
		if sc.exercised != nil && !sc.exercised(res) {
			t.Fatalf("scenario %s did not reach the branch it pins", sc.name)
		}
	}
	if *updateKernelPins {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("kernel equivalence pins rewritten: %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pins (run with -update-kernel-pins to create): %v", err)
	}
	var want kernelPins
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("kernel output diverged from the seed kernel's pinned traces:\ngot  %+v\nwant %+v", got, want)
	}
}
