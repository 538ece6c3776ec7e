// Package probe implements distributed (global) deadlock detection with a
// variation of the Chandy–Misra–Haas edge-chasing algorithm for the AND
// request model [CHAN83], as used by the CARAT testbed (Section 2: "global
// deadlocks were detected using a variation of the probe algorithm").
//
// When a transaction blocks at a site and one of its (transitive) blockers
// is a distributed transaction currently active at another site, the site
// sends a probe to that site. A site receiving probe(i, j, k) forwards it
// along transaction k's local wait-for edges; a probe arriving back at its
// initiator proves a cycle, and the initiator is chosen as victim (matching
// the model's Pra term: a coordinator in remote wait is aborted when a
// deadlock is detected at the remote site).
//
// The package is transport-agnostic: Detector consumes and produces Probe
// values; the testbed carries them between sites as messages.
package probe

import "slices"

// TxnID identifies a global transaction (the same id at every site it
// touches).
type TxnID int64

// SiteID identifies a site.
type SiteID int

// Probe is one edge-chasing message: "initiator Initiator is transitively
// blocked by To, discovered while examining From's dependencies."
type Probe struct {
	Initiator TxnID
	From      TxnID
	To        TxnID
	Dest      SiteID
	// Seq is the initiator's probe round, unique across the whole system:
	// the initiating site's id in the high 32 bits, and in the low bits
	// that site's count of rounds opened so far, which never resets. Each
	// blocking episode's Initiate opens a round, and each Reprobe for a
	// still-blocked initiator opens another. Forwarding sites dedup per
	// (initiator, target, round), so a retransmitted round, and any later
	// blocking episode of the same initiator at any site, is chased again
	// even where an earlier (possibly lost) round already passed through.
	Seq int64
}

// Host exposes the per-site state the detector needs. Implemented by the
// testbed node.
type Host interface {
	// WaitsFor returns the global ids of the transactions that t's local
	// agent is waiting on at this site (empty if not blocked here).
	WaitsFor(t TxnID) []TxnID
	// ActiveSite returns the site where transaction t is currently
	// executing or blocked. ok is false if t is unknown or finished.
	ActiveSite(t TxnID) (site SiteID, ok bool)
}

// probeKey dedups one chased edge: (initiator, target, round).
type probeKey struct {
	initiator TxnID
	to        TxnID
	seq       int64
}

// Detector is the per-site probe engine.
type Detector struct {
	site SiteID
	host Host
	// sent dedups (initiator, to, round) triples so each probe edge is
	// chased once per round.
	sent map[probeKey]bool
	// seq is the current probe round per initiator blocked at this site;
	// absent means the next Initiate opens a new blocking episode.
	seq map[TxnID]int64
	// rounds counts the rounds this detector has opened (see Probe.Seq).
	rounds int64
	// visitBuf is the scratch visited-set for chase, reused across calls.
	visitBuf map[TxnID]bool
	// probeBuf is the scratch output slice for chase, reused across calls.
	// Callers consume the returned probes before the next detector call.
	probeBuf []Probe

	initiated int64
	received  int64
	detected  int64
}

// NewDetector creates the engine for one site.
func NewDetector(site SiteID, host Host) *Detector {
	return &Detector{site: site, host: host, sent: make(map[probeKey]bool), seq: make(map[TxnID]int64), visitBuf: make(map[TxnID]bool)}
}

// Counts returns (probes initiated, probes received, deadlocks detected).
func (d *Detector) Counts() (initiated, received, detected int64) {
	return d.initiated, d.received, d.detected
}

// ClearTxn forgets dedup and round state for an initiator, called when the
// transaction unblocks, aborts, or commits: its next blocking episode here
// opens a new round.
func (d *Detector) ClearTxn(t TxnID) {
	for k := range d.sent {
		if k.initiator == t {
			delete(d.sent, k)
		}
	}
	delete(d.seq, t)
}

// Initiate runs when transaction blocked becomes blocked at this site.
// It chases blocked's local dependency closure; every edge that leaves the
// site becomes an outgoing probe. Local cycles are the lock manager's job
// and are not reported here.
func (d *Detector) Initiate(blocked TxnID) []Probe {
	d.initiated++
	round, ok := d.seq[blocked]
	if !ok {
		round = d.newRound(blocked)
	}
	d.probeBuf = d.chase(blocked, blocked, round, nil, d.probeBuf[:0])
	return d.probeBuf
}

// Reprobe re-initiates edge chasing for a transaction still blocked at this
// site, in a fresh round: the emitted probes carry a bumped Seq, so every
// site on the path forwards them again even if it forwarded (or lost) the
// previous round. Message loss therefore delays detection by at most the
// caller's retransmission period instead of hiding the deadlock forever.
func (d *Detector) Reprobe(blocked TxnID) []Probe {
	d.initiated++
	d.probeBuf = d.chase(blocked, blocked, d.newRound(blocked), nil, d.probeBuf[:0])
	return d.probeBuf
}

// newRound opens the next system-unique probe round (see Probe.Seq) as
// blocked's current round at this site.
func (d *Detector) newRound(blocked TxnID) int64 {
	round := int64(d.site)<<32 | d.rounds
	d.rounds++
	d.seq[blocked] = round
	return round
}

// Receive processes an incoming probe at this site. It returns any probes
// to forward, and if the probe closed a cycle, found=true with the victim
// (the initiator).
func (d *Detector) Receive(p Probe) (forward []Probe, victim TxnID, found bool) {
	d.received++
	if p.To == p.Initiator {
		d.detected++
		return nil, p.Initiator, true
	}
	forward = d.chase(p.Initiator, p.To, p.Seq, nil, d.probeBuf[:0])
	d.probeBuf = forward
	// chase reports a closed cycle by emitting a probe addressed to the
	// initiator at its own site; intercept that here if the initiator is
	// local-to-this-site conceptually immaterial — detection happens when
	// the probe targets the initiator.
	kept := forward[:0]
	for _, f := range forward {
		if f.To == f.Initiator {
			d.detected++
			victim, found = f.Initiator, true
			continue
		}
		kept = append(kept, f)
	}
	return kept, victim, found
}

// chase walks the local wait-for graph from txn on behalf of initiator's
// probe round seq, appending a probe to out for every dependency whose
// target is active at another site, and returns out. visited guards against
// local cycles re-entering. The top-level call passes the detector's reused
// scratch slice; the result is only valid until the next detector call.
func (d *Detector) chase(initiator, txn TxnID, seq int64, visited map[TxnID]bool, out []Probe) []Probe {
	if visited == nil {
		visited = d.visitBuf
		clear(visited)
		visited[txn] = true
	}
	deps := d.host.WaitsFor(txn)
	// The testbed host returns sorted dependencies; sorting is only a
	// determinism backstop for hosts that don't.
	if !slices.IsSorted(deps) {
		slices.Sort(deps)
	}
	for _, m := range deps {
		if m == initiator {
			// Cycle closed locally against a remote initiator: emit a
			// self-addressed probe that Receive converts to detection.
			out = append(out, Probe{Initiator: initiator, From: txn, To: initiator, Dest: d.site, Seq: seq})
			continue
		}
		site, ok := d.host.ActiveSite(m)
		if !ok {
			continue
		}
		if site == d.site {
			if !visited[m] {
				visited[m] = true
				out = d.chase(initiator, m, seq, visited, out)
			}
			continue
		}
		key := probeKey{initiator: initiator, to: m, seq: seq}
		if d.sent[key] {
			continue
		}
		d.sent[key] = true
		out = append(out, Probe{Initiator: initiator, From: txn, To: m, Dest: site, Seq: seq})
	}
	return out
}
