package testbed

import (
	"testing"

	"carat/internal/cc"
	"carat/internal/storage"
)

// ccConfig builds a contended two-node workload under a given protocol.
func ccConfig(p cc.Paradigm, n int, seed uint64) Config {
	cfg := twoNodeConfig(mb4Users(), n, seed)
	cfg.Concurrency = p
	cfg.Layout = storage.Layout{Granules: 400, RecordsPerGran: 6}
	cfg.Duration = 800_000
	cfg.Warmup = 50_000
	return cfg
}

func runCC(t *testing.T, p cc.Paradigm, n int, seed uint64) Results {
	t.Helper()
	sys, err := New(ccConfig(p, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

func TestAllProtocolsMakeProgress(t *testing.T) {
	for _, p := range []cc.Paradigm{cc.TwoPhaseDetect, cc.TwoPhaseWaitDie, cc.TwoPhaseWoundWait, cc.TimestampOrdering, cc.Optimistic, cc.QueueOrdered} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := ccConfig(p, 8, 31)
			// On the paper's standard database every protocol sustains
			// all four transaction types (basic TO starves long writers
			// on much smaller databases — see the starvation test).
			cfg.Layout = storage.DefaultLayout()
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run()
			for i, nr := range res.Nodes {
				for _, k := range []TxnKind{LRO, LU, DRO, DU} {
					if nr.TxnThroughput[k] <= 0 {
						t.Fatalf("node %d: %v stalled under %v", i, k, p)
					}
				}
			}
		})
	}
}

// TestTimestampOrderingStarvesLongWriters documents basic TO's known
// failure mode in read-heavy mixes: a long update transaction keeps
// arriving "too late" at granules younger readers have touched, restarting
// indefinitely while short readers sail through — one concrete instance of
// the assumption-sensitivity Agrawal, Carey & Livny used to explain the
// literature's contradictory 2PL-vs-TO conclusions.
func TestTimestampOrderingStarvesLongWriters(t *testing.T) {
	res := runCC(t, cc.TimestampOrdering, 12, 31) // 400-granule database
	var duCommits int64
	var lroCommits int64
	for _, nr := range res.Nodes {
		duCommits += nr.Commits[DU]
		lroCommits += nr.Commits[LRO]
	}
	if lroCommits == 0 {
		t.Fatal("even readers stalled — that is a bug, not starvation")
	}
	// 2PL at identical parameters commits DUs steadily.
	ref := runCC(t, cc.TwoPhaseDetect, 12, 31)
	var duRef int64
	for _, nr := range ref.Nodes {
		duRef += nr.Commits[DU]
	}
	if duRef == 0 {
		t.Fatal("reference 2PL run has no DU commits — test parameters broken")
	}
	if duCommits*4 > duRef {
		t.Fatalf("expected severe DU starvation under TO: TO %d vs 2PL %d commits",
			duCommits, duRef)
	}
}

func TestPreventionAbortsMoreRestartsThanDetection(t *testing.T) {
	// Wait-die kills on every old-holder conflict, detection only on real
	// cycles: prevention must show more resubmissions at equal contention.
	detect := runCC(t, cc.TwoPhaseDetect, 12, 7)
	waitDie := runCC(t, cc.TwoPhaseWaitDie, 12, 7)
	resub := func(r Results) int64 {
		var subs, commits int64
		for _, nr := range r.Nodes {
			for _, k := range []TxnKind{LRO, LU, DRO, DU} {
				subs += nr.Submissions[k]
				commits += nr.Commits[k]
			}
		}
		return subs - commits
	}
	if resub(waitDie) <= resub(detect) {
		t.Fatalf("wait-die restarts (%d) should exceed detection's (%d)",
			resub(waitDie), resub(detect))
	}
}

func TestTimestampOrderingNeverBlocks(t *testing.T) {
	cfg := ccConfig(cc.TimestampOrdering, 12, 9)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	for i, nr := range res.Nodes {
		if nr.LockWaits != 0 {
			t.Fatalf("node %d: %d lock waits under TO — TO must not block", i, nr.LockWaits)
		}
		if nr.TotalTxnThroughput <= 0 {
			t.Fatalf("node %d stalled", i)
		}
	}
}

func TestTimestampOrderingRestartsUnderContention(t *testing.T) {
	res := runCC(t, cc.TimestampOrdering, 16, 11)
	var rejects int64
	for _, nr := range res.Nodes {
		rejects += nr.LocalDeadlocks // Reject aborts share the counter
	}
	if rejects == 0 {
		t.Fatal("no TO rejects at n=16 on a 400-granule database")
	}
}

func TestWoundWaitWoundsRunningTransactions(t *testing.T) {
	// Two LU populations, tiny database: wounds must occur and the system
	// must keep committing (no stuck wounded transactions).
	users := []UserSpec{
		{Kind: LU, Home: 0}, {Kind: LU, Home: 0}, {Kind: LU, Home: 0}, {Kind: LU, Home: 0},
	}
	cfg := twoNodeConfig(users, 12, 13)
	cfg.Concurrency = cc.TwoPhaseWoundWait
	cfg.Layout = storage.Layout{Granules: 60, RecordsPerGran: 6}
	cfg.Duration = 600_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Nodes[0].Commits[LU] == 0 {
		t.Fatal("no commits under wound-wait at high contention")
	}
	var aborts int64
	aborts = res.Nodes[0].Submissions[LU] - res.Nodes[0].Commits[LU]
	if aborts == 0 {
		t.Fatal("no wounds at this contention level — wound path untested")
	}
}

func TestCCProtocolsDeterministic(t *testing.T) {
	for _, p := range []cc.Paradigm{cc.TwoPhaseWaitDie, cc.TwoPhaseWoundWait, cc.TimestampOrdering, cc.Optimistic, cc.QueueOrdered} {
		a := runCC(t, p, 8, 17)
		b := runCC(t, p, 8, 17)
		for i := range a.Nodes {
			if a.Nodes[i].TotalTxnThroughput != b.Nodes[i].TotalTxnThroughput {
				t.Fatalf("%v nondeterministic at node %d", p, i)
			}
		}
	}
}

func TestCCProtocolString(t *testing.T) {
	if cc.TwoPhaseDetect.String() != "2PL-detect" || cc.TimestampOrdering.String() != "basic-TO" {
		t.Fatal("protocol names wrong")
	}
	if cc.Optimistic.String() != "OCC" || cc.QueueOrdered.String() != "QueCC" {
		t.Fatal("OCC/QueCC protocol names wrong")
	}
}

// TestNoProbeStateOutsideDetection is the regression for the probe-gating
// satellite: the Chandy–Misra detector (and with it every probe message)
// exists only under 2PL with deadlock detection, the one paradigm whose
// waits-for graph can cycle. Prevention, TO, OCC and QueCC allocate no
// probe state at all.
func TestNoProbeStateOutsideDetection(t *testing.T) {
	for _, ccp := range []cc.Paradigm{cc.TwoPhaseWaitDie, cc.TwoPhaseWoundWait, cc.TimestampOrdering, cc.Optimistic, cc.QueueOrdered} {
		cfg := ccConfig(ccp, 4, 5)
		cfg.Duration = 100_000
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range sys.nodes {
			if n.detector != nil {
				t.Fatalf("%v: node %d allocated a probe detector", ccp, i)
			}
		}
		sys.Run()
	}
	sys, err := New(ccConfig(cc.TwoPhaseDetect, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sys.nodes {
		if n.detector == nil {
			t.Fatalf("2PL-detect: node %d missing its probe detector", i)
		}
	}
	sys.Run()
}

// TestQueCCNoDeadlocksNoProbeTraffic checks the deterministic paradigm's
// headline property end to end: claims enter every queue in global gid
// order at planning time, so no deadlock can form and no probe machinery
// runs — even with probe retransmission configured, which is armed only
// for paradigms that can deadlock.
func TestQueCCNoDeadlocksNoProbeTraffic(t *testing.T) {
	cfg := ccConfig(cc.QueueOrdered, 16, 23)
	cfg.Resilience.ProbeRetryMS = 50
	var reprobes, deadlockEvs int
	cfg.Trace = func(ev TraceEvent) {
		switch ev.Ev {
		case EvReprobe:
			reprobes++
		case EvDeadlock:
			deadlockEvs++
		}
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	for i, nr := range res.Nodes {
		if nr.LocalDeadlocks != 0 || nr.GlobalDeadlocks != 0 {
			t.Fatalf("node %d: deadlocks under QueCC (local %d, global %d)",
				i, nr.LocalDeadlocks, nr.GlobalDeadlocks)
		}
		if nr.ProbesResent != 0 {
			t.Fatalf("node %d: %d probe rounds resent under QueCC", i, nr.ProbesResent)
		}
		if nr.TotalTxnThroughput <= 0 {
			t.Fatalf("node %d stalled under QueCC", i)
		}
	}
	if reprobes != 0 || deadlockEvs != 0 {
		t.Fatalf("QueCC trace shows %d reprobes, %d deadlock events", reprobes, deadlockEvs)
	}
}

// TestQueCCHighMPLNoStall regresses the execution-slot gate: with more
// users than DM servers, a parked claim-waiter holding its DM servers used
// to starve the older transaction its claims wait for out of the DM pool —
// a cross-layer cycle that wedged the whole system within seconds. Bounded
// execution slots (System.ccSlots) keep admitted transactions ≤ the DM
// pool, so the run must commit steadily through the entire window.
func TestQueCCHighMPLNoStall(t *testing.T) {
	users := make([]UserSpec, 0, 32)
	base := mb4Users()
	for i := 0; i < 4; i++ {
		users = append(users, base...)
	}
	cfg := twoNodeConfig(users, 8, 9245) // 32 users vs 16 DM servers per site
	cfg.Concurrency = cc.QueueOrdered
	cfg.Layout = storage.Layout{Granules: 400, RecordsPerGran: 6}
	cfg.Warmup = 0
	cfg.Duration = 1_920_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Window < cfg.Duration {
		t.Fatalf("run wedged: event queue drained at %.0f ms of %.0f", res.Window, cfg.Duration)
	}
	var commits int64
	for _, nr := range res.Nodes {
		for _, k := range []TxnKind{LRO, LU, DRO, DU} {
			commits += nr.Commits[k]
		}
	}
	if commits < 100 {
		t.Fatalf("only %d commits across a 32-minute window at MPL 32", commits)
	}
}

// TestOCCNeverBlocksAndValidates exercises optimistic execution under
// contention: accesses never block (no lock waits), conflicts surface as
// commit-time validation aborts counted under CauseValidation, and the
// system keeps committing.
func TestOCCNeverBlocksAndValidates(t *testing.T) {
	res := runCC(t, cc.Optimistic, 16, 29)
	var vAborts, commits, retriedV int64
	for i, nr := range res.Nodes {
		if nr.LockWaits != 0 {
			t.Fatalf("node %d: %d lock waits under OCC — OCC must not block", i, nr.LockWaits)
		}
		if nr.LocalDeadlocks != 0 || nr.GlobalDeadlocks != 0 {
			t.Fatalf("node %d: deadlock counters nonzero under OCC", i)
		}
		vAborts += nr.ValidationAborts
		retriedV += nr.Retried[CauseValidation]
		for _, k := range []TxnKind{LRO, LU, DRO, DU} {
			commits += nr.Commits[k]
		}
	}
	if commits == 0 {
		t.Fatal("no commits under OCC")
	}
	if vAborts == 0 {
		t.Fatal("no validation conflicts at n=16 on a 400-granule database")
	}
	if retriedV == 0 {
		t.Fatal("validation aborts not classified under CauseValidation in retry accounting")
	}
}

// TestCCTraceInvariantsHoldForPrevention re-runs the strict-2PL and
// termination trace properties under the prevention disciplines and the
// new paradigms: no access grant after the commit/abort decision, no
// release before it.
func TestCCTraceInvariantsHoldForPrevention(t *testing.T) {
	for _, p := range []cc.Paradigm{cc.TwoPhaseWaitDie, cc.TwoPhaseWoundWait, cc.Optimistic, cc.QueueOrdered} {
		t.Run(p.String(), func(t *testing.T) {
			var all []TraceEvent
			cfg := ccConfig(p, 10, 19)
			cfg.Duration = 300_000
			cfg.Warmup = 0
			cfg.Trace = func(ev TraceEvent) { all = append(all, ev) }
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			byTxn := map[int64][]TraceEvent{}
			for _, ev := range all {
				byTxn[ev.Txn] = append(byTxn[ev.Txn], ev)
			}
			for txn, evs := range byTxn {
				decided := false
				for _, ev := range evs {
					switch ev.Ev {
					case EvForceCommit, EvRollback, EvDeadlock:
						decided = true
					case EvLockGrant:
						if decided {
							t.Fatalf("%v: txn %d acquires after decision", p, txn)
						}
					case EvRelease:
						if !decided {
							t.Fatalf("%v: txn %d releases before decision", p, txn)
						}
					}
				}
			}
		})
	}
}

// TestPreventionRunsFullWindow is the regression test for two wedges of
// the prevention disciplines. Each was a wait cycle across the two sites,
// which no site's local detector sees:
//   - a request queued behind a conflicting waiter the timestamp rule never
//     compared it with: an old-to-young wait under wound-wait, a
//     young-to-old one under wait-die;
//   - a wounded transaction that began a lock wait before it noticed the
//     wound, so nothing interrupted it while its wounder waited for it.
//
// Without either fix, 11 of these 20 runs drained their event queue with
// every user parked; with only the first, 2 wound-wait runs still did.
// Each must measure its full window.
func TestPreventionRunsFullWindow(t *testing.T) {
	for _, ccp := range []cc.Paradigm{cc.TwoPhaseWaitDie, cc.TwoPhaseWoundWait} {
		for seed := uint64(1); seed <= 10; seed++ {
			cfg := ccConfig(ccp, 8, seed)
			cfg.Layout = storage.Layout{Granules: 200, RecordsPerGran: 6}
			cfg.Warmup, cfg.Duration = 30_000, 330_000
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res := sys.Run(); res.Window != cfg.Duration-cfg.Warmup {
				t.Errorf("%v seed %d: window %.0f ms, want %.0f ms (the run wedged)",
					ccp, seed, res.Window, cfg.Duration-cfg.Warmup)
			}
		}
	}
}
