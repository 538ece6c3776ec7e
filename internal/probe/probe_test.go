package probe

import "testing"

// fakeHost wires a hand-built global wait-for graph for one site.
type fakeHost struct {
	edges map[TxnID][]TxnID
	site  map[TxnID]SiteID
}

func (h *fakeHost) WaitsFor(t TxnID) []TxnID { return h.edges[t] }
func (h *fakeHost) ActiveSite(t TxnID) (SiteID, bool) {
	s, ok := h.site[t]
	return s, ok
}

func TestNoProbesWithoutRemoteEdges(t *testing.T) {
	h := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}},
		site:  map[TxnID]SiteID{1: 0, 2: 0},
	}
	d := NewDetector(0, h)
	probes := d.Initiate(1)
	if len(probes) != 0 {
		t.Fatalf("probes = %v; purely local edges emit nothing", probes)
	}
}

func TestRemoteEdgeEmitsProbe(t *testing.T) {
	h := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}},
		site:  map[TxnID]SiteID{1: 0, 2: 1},
	}
	d := NewDetector(0, h)
	probes := d.Initiate(1)
	if len(probes) != 1 {
		t.Fatalf("probes = %v, want one", probes)
	}
	p := probes[0]
	if p.Initiator != 1 || p.To != 2 || p.Dest != 1 {
		t.Fatalf("probe = %+v", p)
	}
}

func TestTwoSiteCycleDetected(t *testing.T) {
	// Site 0: txn 1 waits for txn 2 (active at site 1).
	// Site 1: txn 2 waits for txn 1 (active at site 0).
	h0 := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}},
		site:  map[TxnID]SiteID{1: 0, 2: 1},
	}
	h1 := &fakeHost{
		edges: map[TxnID][]TxnID{2: {1}},
		site:  map[TxnID]SiteID{1: 0, 2: 1},
	}
	d0 := NewDetector(0, h0)
	d1 := NewDetector(1, h1)

	probes := d0.Initiate(1)
	if len(probes) != 1 {
		t.Fatalf("site 0 probes = %v", probes)
	}
	fwd, victim, found := d1.Receive(probes[0])
	// At site 1, txn 2's dependency is txn 1 == initiator: cycle.
	if !found || victim != 1 {
		t.Fatalf("found=%v victim=%v fwd=%v, want detection with victim 1", found, victim, fwd)
	}
}

func TestThreeSiteCycleDetected(t *testing.T) {
	// 1@0 -> 2@1 -> 3@2 -> 1@0.
	sites := map[TxnID]SiteID{1: 0, 2: 1, 3: 2}
	h0 := &fakeHost{edges: map[TxnID][]TxnID{1: {2}}, site: sites}
	h1 := &fakeHost{edges: map[TxnID][]TxnID{2: {3}}, site: sites}
	h2 := &fakeHost{edges: map[TxnID][]TxnID{3: {1}}, site: sites}
	d0, d1, d2 := NewDetector(0, h0), NewDetector(1, h1), NewDetector(2, h2)

	ps := d0.Initiate(1)
	if len(ps) != 1 || ps[0].Dest != 1 {
		t.Fatalf("step1 probes = %v", ps)
	}
	ps, _, found := d1.Receive(ps[0])
	if found || len(ps) != 1 || ps[0].Dest != 2 || ps[0].To != 3 {
		t.Fatalf("step2 = %v found=%v", ps, found)
	}
	_, victim, found := d2.Receive(ps[0])
	if !found || victim != 1 {
		t.Fatalf("cycle not closed: victim=%v found=%v", victim, found)
	}
}

func TestLocalChainThenRemote(t *testing.T) {
	// At site 0: 1 -> 2 (local) -> 3 (remote). Initiating for 1 must
	// chase through 2 and probe 3.
	h := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}, 2: {3}},
		site:  map[TxnID]SiteID{1: 0, 2: 0, 3: 1},
	}
	d := NewDetector(0, h)
	probes := d.Initiate(1)
	if len(probes) != 1 || probes[0].To != 3 || probes[0].Initiator != 1 {
		t.Fatalf("probes = %v", probes)
	}
}

func TestDedupSuppressesRepeatProbes(t *testing.T) {
	h := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}},
		site:  map[TxnID]SiteID{1: 0, 2: 1},
	}
	d := NewDetector(0, h)
	if got := len(d.Initiate(1)); got != 1 {
		t.Fatalf("first initiate: %d probes", got)
	}
	if got := len(d.Initiate(1)); got != 0 {
		t.Fatalf("second initiate must be deduped, got %d probes", got)
	}
	d.ClearTxn(1)
	if got := len(d.Initiate(1)); got != 1 {
		t.Fatalf("after ClearTxn: %d probes, want 1", got)
	}
}

func TestNoFalseDeadlockOnChain(t *testing.T) {
	// 1@0 -> 2@1, and at site 1 txn 2 waits for 3 which is not blocked.
	sites := map[TxnID]SiteID{1: 0, 2: 1, 3: 1}
	h1 := &fakeHost{edges: map[TxnID][]TxnID{2: {3}}, site: sites}
	d1 := NewDetector(1, h1)
	_, _, found := d1.Receive(Probe{Initiator: 1, From: 1, To: 2, Dest: 1})
	if found {
		t.Fatal("chain without cycle reported as deadlock")
	}
}

func TestFinishedTxnBreaksChase(t *testing.T) {
	h := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}},
		site:  map[TxnID]SiteID{1: 0}, // txn 2 unknown (finished)
	}
	d := NewDetector(0, h)
	if probes := d.Initiate(1); len(probes) != 0 {
		t.Fatalf("probes = %v; finished target must stop the chase", probes)
	}
}

func TestCounts(t *testing.T) {
	h := &fakeHost{
		edges: map[TxnID][]TxnID{2: {1}},
		site:  map[TxnID]SiteID{1: 0, 2: 1},
	}
	d := NewDetector(1, h)
	d.Receive(Probe{Initiator: 1, From: 1, To: 2, Dest: 1})
	ini, rcv, det := d.Counts()
	if ini != 0 || rcv != 1 || det != 1 {
		t.Fatalf("counts = %d,%d,%d", ini, rcv, det)
	}
}

func TestProbeDirectlyAtInitiator(t *testing.T) {
	h := &fakeHost{edges: map[TxnID][]TxnID{}, site: map[TxnID]SiteID{}}
	d := NewDetector(0, h)
	_, victim, found := d.Receive(Probe{Initiator: 7, From: 3, To: 7, Dest: 0})
	if !found || victim != 7 {
		t.Fatalf("self-addressed probe must detect: found=%v victim=%v", found, victim)
	}
}

func TestReprobeBypassesDedupWithFreshRound(t *testing.T) {
	h := &fakeHost{
		edges: map[TxnID][]TxnID{1: {2}},
		site:  map[TxnID]SiteID{1: 0, 2: 1},
	}
	d := NewDetector(0, h)
	first := d.Initiate(1)
	if len(first) != 1 || first[0].Seq != 0 {
		t.Fatalf("initiate = %v, want one round-0 probe", first)
	}
	if got := d.Initiate(1); len(got) != 0 {
		t.Fatalf("repeat initiate must be deduped, got %v", got)
	}
	again := d.Reprobe(1)
	if len(again) != 1 || again[0].Seq != 1 {
		t.Fatalf("reprobe = %v, want one round-1 probe", again)
	}
	if got := d.Reprobe(1); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("second reprobe = %v, want one round-2 probe", got)
	}
	// The next blocking episode opens a round none of the initiator's
	// earlier rounds used, so no site that forwarded one of them drops it.
	d.ClearTxn(1)
	if got := d.Initiate(1); len(got) != 1 || got[0].Seq == 0 || got[0].Seq == 1 || got[0].Seq == 2 {
		t.Fatalf("initiate after ClearTxn = %v, want one probe in a round other than 0, 1 and 2", got)
	}
}

func TestForwarderForwardsEachRoundOnce(t *testing.T) {
	// Site 1 forwards probes for the chain 1@0 -> 2@1 -> 3@2. A repeated
	// round is dropped (the transport may duplicate), but a fresh round —
	// a retransmission after suspected loss — is forwarded again.
	sites := map[TxnID]SiteID{1: 0, 2: 1, 3: 2}
	h1 := &fakeHost{edges: map[TxnID][]TxnID{2: {3}}, site: sites}
	d1 := NewDetector(1, h1)
	round0 := Probe{Initiator: 1, From: 1, To: 2, Dest: 1, Seq: 0}
	fwd, _, found := d1.Receive(round0)
	if found || len(fwd) != 1 || fwd[0].Seq != 0 {
		t.Fatalf("round 0: fwd=%v found=%v, want one forwarded probe", fwd, found)
	}
	if fwd, _, _ := d1.Receive(round0); len(fwd) != 0 {
		t.Fatalf("duplicate round 0 must not be forwarded again: %v", fwd)
	}
	round1 := Probe{Initiator: 1, From: 1, To: 2, Dest: 1, Seq: 1}
	fwd, _, found = d1.Receive(round1)
	if found || len(fwd) != 1 || fwd[0].Seq != 1 {
		t.Fatalf("round 1: fwd=%v found=%v, want one forwarded probe", fwd, found)
	}
}

func TestLaterEpisodeAtAnotherSiteNotDeduped(t *testing.T) {
	// Episode 1: txn 1 blocks at site 1 behind txn 2, which is active at
	// site 0 and waits there for txn 3 at site 1. Site 0 forwards the edge
	// 1→3; txn 3 is not blocked, so the chain ends without a cycle, and
	// txn 1's wait at site 1 ends.
	sites := map[TxnID]SiteID{1: 1, 2: 0, 3: 1}
	h0 := &fakeHost{edges: map[TxnID][]TxnID{2: {3}}, site: sites}
	h1 := &fakeHost{edges: map[TxnID][]TxnID{1: {2}}, site: sites}
	d0, d1 := NewDetector(0, h0), NewDetector(1, h1)
	ps := d1.Initiate(1)
	if len(ps) != 1 || ps[0].Dest != 0 {
		t.Fatalf("episode 1 initiate = %v, want one probe to site 0", ps)
	}
	fwd, _, found := d0.Receive(ps[0])
	if found || len(fwd) != 1 || fwd[0].To != 3 {
		t.Fatalf("episode 1 at site 0: fwd=%v found=%v, want the edge 1→3", fwd, found)
	}
	d1.ClearTxn(1)

	// Episode 2: txn 1 moves to site 0 and blocks behind txn 2 there,
	// while txn 3 now waits at site 1 for txn 1: the global cycle
	// 1@0 → 2@0 → 3@1 → 1@0. Site 0 must chase the edge 1→3 again even
	// though it forwarded that edge in episode 1.
	sites[1] = 0
	h0.edges[1] = []TxnID{2}
	h1.edges = map[TxnID][]TxnID{3: {1}}
	ps = d0.Initiate(1)
	if len(ps) != 1 || ps[0].To != 3 || ps[0].Dest != 1 {
		t.Fatalf("episode 2 initiate = %v, want the edge 1→3 chased again", ps)
	}
	if _, victim, found := d1.Receive(ps[0]); !found || victim != 1 {
		t.Fatalf("episode 2 cycle not detected: found=%v victim=%v", found, victim)
	}
}

func TestRoundsUniqueAcrossSites(t *testing.T) {
	// An episode at site 1 and a later one at site 0, each the first round
	// its detector opens, must not share a round: a forwarder that chased
	// site 1's round must still chase site 0's.
	sites := map[TxnID]SiteID{2: 2}
	h := &fakeHost{edges: map[TxnID][]TxnID{1: {2}}, site: sites}
	d0, d1 := NewDetector(0, h), NewDetector(1, h)
	p1 := d1.Initiate(1)
	p0 := d0.Initiate(1)
	if len(p0) != 1 || len(p1) != 1 {
		t.Fatalf("initiates = %v, %v; want one probe each", p0, p1)
	}
	if p0[0].Seq == p1[0].Seq {
		t.Fatalf("sites 0 and 1 opened the same round %d", p0[0].Seq)
	}
}
