package testbed

import (
	"fmt"

	"carat/internal/cc"
	"carat/internal/disk"
	"carat/internal/lock"
	"carat/internal/placement"
	"carat/internal/probe"
	"carat/internal/rng"
	"carat/internal/sim"
	"carat/internal/storage"
)

// user is one TR application process: it submits transactions of one kind
// sequentially, in a closed loop with optional think time, resubmitting
// after deadlock aborts until each transaction commits (Figure 3).
type user struct {
	sys  *System
	spec UserSpec
	id   int
	rnd  *rng.Rand
	// backoffRnd is the dedicated retry-jitter stream; kept separate from
	// rnd so a backoff policy never shifts the workload's draws.
	backoffRnd *rng.Rand
	// curTS is the prevention timestamp of the current user transaction:
	// the gid of its first submission, kept across deadlock restarts so
	// wait-die and wound-wait make progress.
	curTS int64
	// lastAbort and lastGid record the cause and gid of the most recent
	// aborted submission, for the retry loop's per-cause accounting.
	lastAbort error
	lastGid   int64
	// holdsSlot is true while this user holds an admission slot at its home
	// site.
	holdsSlot bool
	// Per-submission scratch buffers (a user runs one attempt at a time),
	// reused so the request path stays allocation-free in steady state.
	recsBuf  []int
	gransBuf []int
	schedBuf []int
	permBuf  []int
	shufBuf  []int
	// Placement scratch: anchorBuf holds the one-record anchor draw that
	// picks a request's executing site; remBuf the submission's distinct
	// remote sites in first-touch order (placement runs only).
	anchorBuf []int
	remBuf    []*node
	// QueCC planning scratch: planBuf holds the pre-drawn granules of each
	// request (schedule order); ccSkipBuf marks the remotes whose granules
	// this submission serves at replicas instead (read failover, decided at
	// plan time so the claim plan and the execution agree).
	planBuf   [][]int
	ccSkipBuf []bool
	// Open-class overrides (see OpenClass): zero values inherit the
	// Config-wide transaction size, remote fraction and access pattern.
	// Closed users always leave them zero.
	classReq int
	classRF  float64
	classPat storage.Pattern
}

// attemptOutcome is what one submission attempt came to.
type attemptOutcome int

const (
	// attemptAborted: the submission began and was aborted (and rolled
	// back); it counts against the retry budget.
	attemptAborted attemptOutcome = iota
	// attemptCommitted: the submission committed.
	attemptCommitted
	// attemptBlockedDown: a participant site was down before the
	// submission could begin; nothing was executed, so it does not count
	// against the retry budget.
	attemptBlockedDown
)

// run is the TR process body: an endless submit-commit loop. The
// simulation clock bound ends it.
func (u *user) run(p *sim.Proc) {
	home := u.sys.nodes[u.spec.Home]
	costs := home.costsFor(u.spec.Kind)
	for {
		if costs.ThinkTime > 0 {
			p.Hold(costs.ThinkTime)
		}
		u.execOne(p)
	}
}

// execOne drives one user transaction from first submission to commit,
// looping through aborts under the configured retry policy: each aborted
// submission counts against the retry budget, waits out the exponential
// backoff, and — once the budget is exhausted — the transaction is
// abandoned instead of resubmitted. With the zero policy the loop is the
// paper's behavior: retry immediately, forever. Response time (including
// aborts and inter-submission think times, the paper's R) is recorded at
// the home node only for transactions that commit.
func (u *user) execOne(p *sim.Proc) {
	home := u.sys.nodes[u.spec.Home]
	costs := home.costsFor(u.spec.Kind)
	retry := &u.sys.cfg.Resilience.Retry
	if u.sys.faults != nil {
		u.awaitFaults(p)
	}
	start := p.Now()
	u.curTS = 0
	attempts := 0
	committed := false
	for {
		u.admit(p, home)
		outcome := u.attempt(p)
		u.releaseAdmission(home)
		if outcome == attemptCommitted {
			committed = true
			break
		}
		if outcome == attemptAborted {
			attempts++
			cause := abortCauseOf(u.lastAbort)
			if retry.MaxAttempts > 0 && attempts >= retry.MaxAttempts {
				home.abandoned[cause].Inc()
				u.sys.trace(u.lastGid, u.spec.Kind, home.id, EvAbandon, -1)
				break
			}
			home.retried[cause].Inc()
		}
		if costs.ThinkTime > 0 {
			p.Hold(costs.ThinkTime)
		}
		if outcome == attemptAborted {
			if b := u.retryBackoff(attempts); b > 0 {
				u.sys.trace(u.lastGid, u.spec.Kind, home.id, EvRetryBackoff, -1)
				p.Hold(b)
			}
		}
		if u.sys.faults != nil {
			u.awaitFaults(p)
		}
	}
	if !committed {
		return
	}
	home.respTime[u.spec.Kind].Add(p.Now() - start)
	home.respHist[u.spec.Kind].Add(p.Now() - start)
	home.recordCommit(u.spec.Kind, p.Now())
	home.recordsDone[u.spec.Kind].Addn(int64(u.reqsPerTxn() * u.sys.cfg.RecordsPerRequest))
}

// attempt executes one submission of the transaction and reports how it
// ended: committed, aborted (and rolled back), or blocked before it began
// by a down participant site.
func (u *user) attempt(p *sim.Proc) attemptOutcome {
	sys := u.sys
	if sys.ccSlots != nil {
		// Deterministic execution admits one submission per execution slot
		// (see System.ccSlots). Acquired before the pre-submission checks so
		// that the check, the gid draw and the plan still share one kernel
		// step once the slot is granted.
		mustAcquire(sys.ccSlots, p)
		defer func() {
			if !sys.env.Terminated() {
				sys.ccSlots.Release()
			}
		}()
	}
	kind := u.spec.Kind
	home := sys.nodes[u.spec.Home]
	var remotes []*node
	var schedule []int
	if sys.placement != nil && kind.Distributed() {
		// Directory-driven routing: the request schedule and the distinct
		// remote sites it touches are resolved through the data directory,
		// replacing the hand-wired RemoteSites list. Drawn before the
		// participant checks because the fault layer needs the remote set.
		schedule, remotes = u.placementSchedule()
	} else {
		for _, r := range u.spec.RemoteSites() {
			remotes = append(remotes, sys.nodes[r])
		}
	}
	costs := home.costsFor(kind)

	if sys.faults != nil {
		// A submission against a down site fails immediately; the user
		// backs off in execOne and resubmits after the outage.
		if home.down {
			return attemptBlockedDown
		}
		for _, r := range remotes {
			// Reads of replicated granules need not wait out a slave outage:
			// they fail over to surviving replicas below.
			if r.down && !sys.replReadFailover(home.id, kind) {
				return attemptBlockedDown
			}
			if (!sys.reachable(home.id, r.id) || sys.suspected(home.id, r.id)) &&
				!sys.replReadFailover(home.id, kind) {
				// The slave is partitioned away — or the failure detector
				// suspects it — and no failover path exists: shed the
				// submission before it begins rather than let it time out
				// mid-protocol.
				home.partitionShed.Inc()
				return attemptBlockedDown
			}
		}
	}

	gid := sys.nextTxnID()
	st := &txnState{gid: gid, kind: kind, home: home.id, activeNode: home.id, proc: p}
	if sys.faults != nil {
		st.parts = append(st.parts, home.id)
		for _, r := range remotes {
			st.parts = append(st.parts, r.id)
		}
	}
	sys.reg[gid] = st
	defer func() {
		if sys.env.Terminated() {
			// Shutdown is unwinding this process: the run ended with the
			// transaction in flight. Leave it registered so CrashRecover
			// sees the same frozen state a real crash would.
			return
		}
		st.finished = true
		delete(sys.reg, gid)
	}()
	home.submissions[kind].Inc()
	sys.trace(gid, kind, home.id, EvBegin, -1)
	if u.curTS == 0 {
		u.curTS = gid
	}
	// Open the concurrency-control state at every participant. Begin is a
	// no-op under 2PL with detection, registers the prevention timestamp
	// under wait-die/wound-wait, and opens the validation window under OCC.
	// A remote the pre-submission check only let through because read
	// failover covers it (down, unreachable or suspected — ccSkip) takes no
	// part in the submission, so no state is opened there; no simulation
	// time has passed since that check, so the conditions still hold.
	ccSkip := u.ccSkipBuf[:0]
	for range remotes {
		ccSkip = append(ccSkip, false)
	}
	u.ccSkipBuf = ccSkip
	home.ccp.Begin(cc.TxnID(gid), u.curTS)
	for i, remote := range remotes {
		if sys.faults != nil && (remote.down || !sys.reachable(home.id, remote.id) ||
			sys.suspected(home.id, remote.id)) {
			ccSkip[i] = true
			continue
		}
		remote.ccp.Begin(cc.TxnID(gid), u.curTS)
	}
	var plan [][]int
	if sys.ccCaps.Deterministic {
		// QueCC plans the whole submission now, in the same kernel step as
		// the gid draw: every queue receives its claims in global gid order,
		// so the "grant iff no conflicting older claim ahead" admission rule
		// can never form a wait cycle — no deadlocks by construction.
		schedule, plan = u.planQueCC(st, home, remotes, ccSkip, schedule)
	}

	// --- INIT phase: TBEGIN and DBOPEN processing; DM allocation. ---
	// Read failover is decided here, once per remote for the whole
	// submission: a remote down at INIT never joins dmHeld, so every one of
	// its requests must be served at replicas even if it restarts
	// mid-submission — taking native locks at a site outside the commit
	// protocol would leak them.
	dmHeld := []*node{home}
	foRemote := make([]bool, len(remotes))
	mustAcquire(home.dmPool, p)
	must(home, home.tmStep(p, costs.InitCPU))
	for i, remote := range remotes {
		if sys.ccCaps.Deterministic && ccSkip[i] {
			// The failover decision was made at plan time (no claims were
			// planted at this site); it is binding even if the site has
			// recovered since, so the execution matches the plan.
			foRemote[i] = true
			continue
		}
		if (remote.down || !sys.reachable(home.id, remote.id) || sys.suspected(home.id, remote.id)) &&
			sys.replReadFailover(home.id, kind) {
			// Failed-over read: the down (or unreachable, or suspected) site
			// takes no part in this submission; its granules are served at
			// surviving replicas.
			foRemote[i] = true
			u.dropSkippedCC(st, remote)
			continue
		}
		if !sys.reachable(home.id, remote.id) {
			// Partitioned away since the pre-submission check and no
			// failover path: the INIT message cannot be delivered. The doom
			// is noticed at the next phase boundary, like a crash.
			st.doom(errPartitioned)
			u.dropSkippedCC(st, remote)
			continue
		}
		rcosts := remote.costsFor(kind)
		p.Hold(sys.hop(home.id, remote.id, controlMsgBytes))
		must(remote, remote.tmStep(p, rcosts.TMCPU))
		mustAcquire(remote.dmPool, p)
		dmHeld = append(dmHeld, remote)
		p.Hold(sys.hop(remote.id, home.id, controlMsgBytes))
	}
	if sys.repl != nil {
		st.protoHeld = dmHeld
	}
	releaseDMs := func() {
		for _, nd := range dmHeld {
			nd.dmPool.Release()
		}
	}

	// --- Request sequence: n requests, a shuffled mix of local and remote.
	// Under QueCC the schedule (and every request's granules) was already
	// drawn at planning time; everywhere else it is drawn here. ---
	if schedule == nil {
		schedule = u.requestSchedule(len(remotes))
	}
	aborted := false
	for ri, dest := range schedule {
		// The request's whole message path is one chain (see reqChain). A
		// remote down at INIT is failed over: its granules are served at
		// surviving replicas, and its TM takes no part.
		nd, failover := home, false
		if dest >= 0 {
			nd, failover = remotes[dest], foRemote[dest]
		}
		c := u.chain(st, nd, failover)
		c.home, c.remote, c.uCPU, c.homeTM = home, nd != home && !failover, costs.UCPU, costs.TMCPU
		if plan != nil {
			c.grans = plan[ri]
		}
		if err := u.runChain(p, c); err != nil {
			aborted = true
			break
		}
	}

	if !aborted {
		// --- Commit: TEND through the TM, then validation (OCC only) and
		// the commit protocol. ---
		st.committing = true
		must(home, home.tmStep(p, costs.TMCPU))
		committed := false
		// Two-phase commit coordinates the slaves actually holding work —
		// under read failover a down remote never joined dmHeld.
		if !sys.ccCaps.ValidatesAtCommit || u.ccValidate(st, dmHeld) {
			if len(dmHeld) == 1 {
				committed = u.commitLocal(p, st, home, costs)
			} else {
				committed = u.twoPhaseCommit(p, st, home, dmHeld[1:])
			}
		}
		if committed {
			u.releaseReplicaReads(p, st)
			sys.trace(gid, kind, home.id, EvCommitted, -1)
			releaseDMs()
			return attemptCommitted
		}
		aborted = true
	}

	u.noteAbort(home, st)
	u.rollback(p, st, dmHeld)
	u.releaseReplicaReads(p, st)
	sys.trace(gid, kind, home.id, EvAborted, -1)
	releaseDMs()
	return attemptAborted
}

// noteAbort attributes an abort to a crash or a timeout for the
// availability accounting (deadlock aborts are already counted by the lock
// manager and probe machinery), remembers the cause and gid for the retry
// loop, and feeds the admission gate's abort-rate trigger.
func (u *user) noteAbort(home *node, st *txnState) {
	u.lastAbort = st.cause
	u.lastGid = st.gid
	switch st.cause {
	case errSiteCrash:
		home.fault.CrashAborts++
	case errPartitioned:
		home.partitionAborts.Inc()
	case errLockTimeout, errPrepareTimeout:
		home.fault.TimeoutAborts++
	}
	home.noteAbortRate(u.sys.env.Now())
}

// requestSchedule returns the destination of each of the n requests: -1
// for local, otherwise an index into the user's remote sites. The remote
// count is round(RemoteFrac * n), spread over the slave sites by
// RemoteSplit; positions are shuffled per submission.
func (u *user) requestSchedule(remotes int) []int {
	n := u.reqsPerTxn()
	schedule := u.schedBuf[:0]
	for i := 0; i < n; i++ {
		schedule = append(schedule, -1)
	}
	u.schedBuf = schedule
	if !u.spec.Kind.Distributed() || remotes == 0 {
		return schedule
	}
	nRemote := int(u.remoteFrac()*float64(n) + 0.5)
	if nRemote > n {
		nRemote = n
	}
	split := RemoteSplit(nRemote, remotes)
	pos := 0
	for site, cnt := range split {
		for i := 0; i < cnt; i++ {
			schedule[pos] = site
			pos++
		}
	}
	u.permBuf = u.rnd.PermAppend(u.permBuf[:0], n)
	shuffled := u.shufBuf[:0]
	for i := 0; i < n; i++ {
		shuffled = append(shuffled, 0)
	}
	for i, j := range u.permBuf {
		shuffled[j] = schedule[i]
	}
	u.shufBuf = shuffled
	return shuffled
}

// placementSchedule draws one submission's request schedule through the
// data directory: every request's executing site comes from an anchor
// record drawn over the fleet's global record space and resolved by the
// directory (the locality strategy first makes the affinity draw, pinning
// the request to the home shard). It returns the schedule (-1 = home,
// otherwise an index into the returned remotes) and the distinct remote
// sites in first-touch order.
func (u *user) placementSchedule() ([]int, []*node) {
	sys := u.sys
	pl := sys.placement
	home := u.spec.Home
	n := u.reqsPerTxn()
	schedule := u.schedBuf[:0]
	remotes := u.remBuf[:0]
	for i := 0; i < n; i++ {
		site := u.drawSite(pl, home)
		if site == home {
			schedule = append(schedule, -1)
			continue
		}
		idx := -1
		for j, nd := range remotes {
			if nd.id == site {
				idx = j
				break
			}
		}
		if idx < 0 {
			remotes = append(remotes, sys.nodes[site])
			idx = len(remotes) - 1
		}
		schedule = append(schedule, idx)
	}
	u.schedBuf = schedule
	u.remBuf = remotes
	return schedule, remotes
}

// drawSite picks the executing site of one request. Under the locality
// strategy an affinity draw first keeps the request in the home shard;
// otherwise (and always under hash and range) a single anchor record drawn
// over the global record space names the granule whose directory entry is
// the executing site — so a skewed anchor pattern concentrates load on the
// sites owning the hot granules under range placement and stripes it under
// hash placement.
func (u *user) drawSite(pl *placementState, home NodeID) NodeID {
	if pl.dir.Strategy() == placement.Locality && u.rnd.Bool(pl.affinity) {
		return home
	}
	u.anchorBuf = pl.pat.PickAppend(u.anchorBuf[:0], u.rnd, pl.global, 1)
	return NodeID(pl.dir.Site(pl.global.GranuleOf(u.anchorBuf[0])))
}

// pickRecords draws the records for one request into the user's scratch
// buffer.
func (u *user) pickRecords(l storage.Layout, k int) []int {
	u.recsBuf = u.pattern().PickAppend(u.recsBuf[:0], u.rnd, l, k)
	return u.recsBuf
}

// planQueCC builds the submission's deterministic execution plan in the
// same kernel step as the gid draw: the full request schedule and every
// request's granules are drawn now, and each granule is registered as a
// priority-queue claim at its executing site. Registration order therefore
// equals gid order at every site, which keeps the per-granule queues
// acyclic — a claim only ever waits on strictly older claims, so waits
// can never cycle. Remotes flagged in skip serve their granules at
// replicas (read failover), so no claims are planted there. A non-nil
// schedule (directory-driven placement) is planned as given; nil draws the
// classic RemoteFrac schedule here.
func (u *user) planQueCC(st *txnState, home *node, remotes []*node, skip []bool, schedule []int) ([]int, [][]int) {
	cfg := &u.sys.cfg
	write := u.spec.Kind.Update()
	if schedule == nil {
		schedule = u.requestSchedule(len(remotes))
	}
	if cap(u.planBuf) < len(schedule) {
		grown := make([][]int, len(schedule))
		copy(grown, u.planBuf[:cap(u.planBuf)])
		u.planBuf = grown
	}
	plan := u.planBuf[:len(schedule)]
	for ri, dest := range schedule {
		recs := u.pickRecords(cfg.Layout, cfg.RecordsPerRequest)
		plan[ri] = storage.GranulesOfAppend(plan[ri][:0], cfg.Layout, recs)
		if dest >= 0 && skip[dest] {
			continue
		}
		nd := home
		if dest >= 0 {
			nd = remotes[dest]
		}
		for _, g := range plan[ri] {
			nd.qcc.Plan(cc.TxnID(st.gid), cc.GranuleID(g), write)
		}
	}
	return schedule, plan
}

// dropSkippedCC clears the concurrency-control state opened at Begin (and,
// under QueCC, the planned queue claims) at a remote skipped for the rest
// of this submission. A crashed site lost the state with its volatile
// memory; an unreachable site cleans up cooperatively when the partition
// heals; a reachable-but-suspected site drops it now. The 2PL/TO engines
// keep the original do-nothing behavior: their per-transaction Begin state
// is inert, and those paths are byte-pinned.
func (u *user) dropSkippedCC(st *txnState, nd *node) {
	sys := u.sys
	if !sys.ccCaps.Deterministic && !sys.ccCaps.ValidatesAtCommit {
		return
	}
	if nd.down {
		return
	}
	if !sys.reachable(st.home, nd.id) {
		sys.queueTermination(nd.id, st.gid, true)
		return
	}
	nd.ccp.Finish(cc.TxnID(st.gid))
}

// ccValidate runs OCC backward validation at every participant, home
// first. Success at a site atomically publishes its write set; a conflict
// at any site dooms the transaction under CauseValidation and the normal
// rollback path undoes its writes. (Sites validated before the failing one
// keep their published entries — a conservative over-approximation that
// can only add spurious conflicts, never miss real ones.)
func (u *user) ccValidate(st *txnState, participants []*node) bool {
	sys := u.sys
	for _, nd := range participants {
		if nd.down {
			// The site's validation state died with it; the commit protocol
			// below aborts the transaction for the crash.
			continue
		}
		if !nd.ccp.Validate(cc.TxnID(st.gid)) {
			nd.validationFails.Inc()
			sys.trace(st.gid, u.spec.Kind, nd.id, EvValidationAbort, -1)
			if st.cause == nil {
				st.cause = errValidation
			}
			return false
		}
	}
	return true
}

// chain takes a request chain from the System's pool for a request
// executed at site nd, positioned at the U burst. nd's costs are resolved
// unless failover serves its granules at replicas. The caller sets the
// rest; a chain whose granules are not planned (grans nil) draws them at
// nd.
func (u *user) chain(st *txnState, nd *node, failover bool) *reqChain {
	sys := u.sys
	var c *reqChain
	if n := len(sys.reqChains); n > 0 {
		c, sys.reqChains = sys.reqChains[n-1], sys.reqChains[:n-1]
	} else {
		c = new(reqChain)
	}
	c.u, c.st, c.nd, c.failover, c.i, c.owner = u, st, nd, failover, -1, -1
	if !failover {
		costs := nd.costsFor(u.spec.Kind)
		c.execTM, c.dmCPU, c.lrCPU, c.dmioCPU = costs.TMCPU, costs.DMCPU, costs.LRCPU, costs.DMIOCPU
	}
	return c
}

// runChain runs chain c, returns it to the System's pool and returns the
// request's error.
func (u *user) runChain(p *sim.Proc, c *reqChain) error {
	err := c.run(p)
	*c = reqChain{}
	u.sys.reqChains = append(u.sys.reqChains, c)
	return err
}

// reqChain is the station-visit step machine of one database request:
// its whole message path, U → TM → [REMDO hop → slave TM] → DM/LR/DMIO/
// I/O → [slave TM → response hop] → TM. The U burst runs at the
// coordinator. A TM step seizes the site's TM server (sim.Seize), runs
// its CPU burst inside it and releases it in Next: the TM is a critical
// section whose body is a CPU burst (Section 5.5). A hop with a positive
// delay visits the System's wire; a zero-delay hop visits nothing. At the
// executing site the chain runs, from the first DM burst, per granule:
// the LR burst, the granule's concurrency-control access, the DMIO burst
// and the granule's disk I/O — one read, which a configured buffer pool
// can absorb, plus for update kinds a before-image journal write and an
// in-place write (the three I/Os behind Table 2's tripled DMIO disk
// time) — then the DM burst before the next lock request. The kernel runs
// the visits without resuming the user (sim.Proc.Visits). An access
// granted at once, with no victims, is made inside the chain: it takes no
// simulated time. The chain stops for an access that blocks, restarts the
// requester or displaces victims, for a quorum read and for read
// failover, and fails on a doomed transaction, an undeliverable REMDO or
// a site cut off mid-request; run does those steps in the user process.
// It never stops or fails while it holds a TM server. Records are pooled
// per System, so a request allocates none.
type reqChain struct {
	u     *user
	st    *txnState
	home  *node // the coordinator
	nd    *node // the executing site
	grans []int
	i     int          // index in grans of the granule in progress, -1 before the first
	at    reqStep      // the chain's position: what Next does, or where it stopped
	dev   *disk.Device // device of the I/O in progress, counted when it ends
	err   error        // the request's error once the chain stopped at reqFailed
	// lid and d are the access run settles once the chain stopped at
	// reqAccess: its lock granule and the engine's decision. d.Victims
	// aliases an engine buffer that is valid only until the next Access.
	// run settles d as soon as the process resumes, in the dispatch that
	// made the decision, so no other access can come between.
	lid int
	d   cc.Decision
	// tmSite is the site of the TM step in progress, tmCPU its burst and
	// after the position the chain goes on at once the server is
	// released.
	tmSite *node
	tmCPU  float64
	after  reqStep

	// remote is set when nd is a slave the REMDO reaches over the network;
	// failover when nd's granules are served at replicas instead.
	remote, failover      bool
	uCPU, homeTM, execTM  float64
	dmCPU, lrCPU, dmioCPU float64
	// owner is the site whose granules a replica serves under read
	// failover (see failoverRead), -1 for a request at the owning site. A
	// failover chain starts at the DM burst, serves one granule and stops
	// after its I/O.
	owner NodeID
}

// reqStep is a reqChain position: a visit to start, a visit just ended,
// or a stop.
type reqStep uint8

const (
	reqU         reqStep = iota // start the U burst at the coordinator
	reqUDone                    // U burst over: the coordinator's TM step
	reqRoute                    // coordinator's TM step over: route the request
	reqSlaveIn                  // REMDO delivered: the slave's TM step
	reqStart                    // at the executing site: draw the granules
	reqDM                       // start a DM burst
	reqDMDone                   // DM burst over: next granule's LR, or the reply
	reqLRDone                   // LR burst over: the access, then DMIO on a plain grant
	reqDMIO                     // start the DMIO burst, after a settled access
	reqDMIODone                 // DMIO burst over: the granule's I/O
	reqReadDone                 // database read over
	reqLogDone                  // before-image write over: the in-place write
	reqWriteDone                // in-place write over
	reqReply                    // slave's TM step over: the response hop
	reqReturn                   // at the coordinator: its DOSTEP_K/REMDO_K TM step
	reqDone                     // coordinator's TM step over: the request ends
	reqTMHeld                   // TM server granted: the CPU burst inside it
	reqTMDone                   // TM burst over: release the server, go on at after
	reqAccess                   // stopped to settle the granule's access
	reqQuorum                   // stopped for the granule's quorum read
	reqFailover                 // stopped to serve the granules at replicas
	reqEnd                      // stopped: the request is done
	reqFailed                   // stopped: the request failed with err
)

// run drives the chain from the user process and returns the request's
// error. The visits must never be interrupted: transactions are only
// killed while parked in lock waits.
func (c *reqChain) run(p *sim.Proc) error {
	u, st, nd := c.u, c.st, c.nd
	for {
		if err := p.Visits(c); err != nil {
			panic(fmt.Sprintf("testbed: unexpected interrupt at node %d: %v", nd.id, err))
		}
		switch c.at {
		case reqAccess:
			if err := u.settle(p, st, nd, c.lid, c.d); err != nil {
				return err
			}
			if st.doomed {
				return errDeadlockVictim
			}
			c.at = reqDMIO
		case reqQuorum:
			if err := u.quorumRead(p, st, nd, nd.id, c.grans[c.i]); err != nil {
				return err
			}
			c.at = reqDM
		case reqFailover:
			if err := u.failoverRead(p, st, nd, c.grans); err != nil {
				return err
			}
			c.at = reqReturn
		default:
			return c.err
		}
	}
}

// Next implements sim.Chain: it does what the request does between two
// visits and returns the next visit, or stops.
func (c *reqChain) Next() (*sim.Resource, float64) {
	st, nd, sys := c.st, c.nd, c.u.sys
	for {
		switch c.at {
		case reqU:
			// U phase: the user application prepares the request.
			st.activeNode = c.home.id
			c.at = reqUDone
			return c.home.cpuVisit(c.uCPU)
		case reqUDone:
			// TM phase: the coordinator TM routes the TDO.
			return c.tmStep(c.home, c.homeTM, reqRoute)
		case reqRoute:
			if !c.remote {
				c.at = reqStart
				continue
			}
			if !sys.reachable(c.home.id, nd.id) {
				// Partitioned away mid-submission: the REMDO cannot be
				// delivered.
				return c.fail(st.doom(errPartitioned))
			}
			c.at = reqSlaveIn
			if r, d := c.hop(c.home, nd, requestMsgBytes); r != nil {
				return r, d
			}
			fallthrough
		case reqSlaveIn:
			// Slave TM receives the REMDO and forwards to the slave DM.
			return c.tmStep(nd, c.execTM, reqStart)
		case reqStart:
			st.activeNode = nd.id
			if !c.failover {
				if err := sys.cutOff(st, nd); err != nil {
					return c.fail(err)
				}
			}
			if c.grans == nil {
				cfg := &sys.cfg
				recs := c.u.pickRecords(cfg.Layout, cfg.RecordsPerRequest)
				c.u.gransBuf = storage.GranulesOfAppend(c.u.gransBuf[:0], cfg.Layout, recs)
				c.grans = c.u.gransBuf
			}
			if c.failover {
				return c.stop(reqFailover)
			}
			fallthrough
		case reqDM:
			c.at = reqDMDone
			return nd.cpuVisit(c.dmCPU)
		case reqDMDone:
			if c.i >= 0 && st.doomed {
				return c.fail(errDeadlockVictim)
			}
			if c.i++; c.i == len(c.grans) {
				if c.remote {
					// Slave TM routes the response back to the coordinator.
					return c.tmStep(nd, c.execTM, reqReply)
				}
				c.at = reqReturn
				continue
			}
			// LR: concurrency-control request processing (a lock request with
			// local deadlock detection under 2PL, a timestamp check under TO),
			// costed at LRCPU as in the paper.
			c.at = reqLRDone
			return nd.cpuVisit(c.lrCPU)
		case reqLRDone:
			c.lid = c.grans[c.i]
			if c.owner >= 0 {
				c.lid = sys.replBlock(c.owner, c.lid)
			}
			d, err := c.u.decide(st, nd, c.lid, c.mode())
			if err != nil {
				return c.fail(err)
			}
			if d.Outcome != cc.Grant || len(d.Victims) > 0 {
				c.d = d
				return c.stop(reqAccess)
			}
			sys.trace(st.gid, c.u.spec.Kind, nd.id, EvLockGrant, c.lid)
			if st.doomed {
				return c.fail(errDeadlockVictim)
			}
			fallthrough
		case reqDMIO:
			c.at = reqDMIODone
			return nd.cpuVisit(c.dmioCPU)
		case reqDMIODone:
			// Never write journal records at a crashed site (restart recovery
			// must see exactly the state the crash froze), and never perform
			// work a partition made undeliverable.
			if err := sys.cutOff(st, nd); err != nil {
				return c.fail(err)
			}
			if h := sys.cfg.BufferHitRatio; h > 0 && c.u.rnd.Bool(h) {
				return c.update()
			}
			g := c.grans[c.i]
			c.at, c.dev = reqReadDone, nd.dbDiskFor(g)
			return c.dev.Visit(disk.Read, g)
		case reqReadDone:
			c.dev.Done(disk.Read)
			return c.update()
		case reqLogDone:
			c.dev.Done(disk.LogWrite)
			g := c.grans[c.i]
			nd.store.Touch(g)
			c.at, c.dev = reqWriteDone, nd.dbDiskFor(g)
			return c.dev.Visit(disk.Write, g)
		case reqWriteDone:
			c.dev.Done(disk.Write)
			if sys.repl != nil {
				st.noteReplWrite(nd.id, c.grans[c.i])
			}
			return c.ioDone()
		case reqReply:
			c.at = reqReturn
			if r, d := c.hop(nd, c.home, responseMsgBytes); r != nil {
				return r, d
			}
			fallthrough
		case reqReturn:
			// Coordinator TM processes the DOSTEP_K / REMDO_K.
			st.activeNode = c.home.id
			return c.tmStep(c.home, c.homeTM, reqDone)
		case reqDone:
			if st.doomed {
				return c.fail(errDeadlockVictim)
			}
			return c.stop(reqEnd)
		case reqTMHeld:
			c.at = reqTMDone
			return c.tmSite.cpuVisit(c.tmCPU)
		case reqTMDone:
			c.tmSite.tm.Release()
			c.at = c.after
		default:
			panic(fmt.Sprintf("testbed: request chain stepped at %d", c.at))
		}
	}
}

// tmStep starts one TM message-processing step at site nd (see
// node.tmStep): it seizes the TM server, and the chain then runs the CPU
// burst of cpu inside it, releases it and goes on at after.
func (c *reqChain) tmStep(nd *node, cpu float64, after reqStep) (*sim.Resource, float64) {
	c.at, c.tmSite, c.tmCPU, c.after = reqTMHeld, nd, cpu, after
	return nd.tm, sim.Seize
}

// hop sends one of the request's messages from site from to site to: a
// visit to the wire for a positive delay, and no visit (a nil station)
// for none.
func (c *reqChain) hop(from, to *node, bytes int) (*sim.Resource, float64) {
	sys := c.u.sys
	if d := sys.hop(from.id, to.id, bytes); d > 0 {
		return sys.wire, d
	}
	return nil, 0
}

// update starts an update's journal write after the granule's read, or
// finishes the granule's I/O for a read-only kind.
func (c *reqChain) update() (*sim.Resource, float64) {
	if !c.u.spec.Kind.Update() {
		return c.ioDone()
	}
	nd, g := c.nd, c.grans[c.i]
	nd.journal.LogBeforeImage(c.st.gid, nd.store, g)
	c.at, c.dev = reqLogDone, nd.logDisk
	return c.dev.Visit(disk.LogWrite, g)
}

// ioDone follows the granule's I/O: a failover chain ends, a quorum read
// stops the chain, and otherwise the DM burst before the next lock
// request starts.
func (c *reqChain) ioDone() (*sim.Resource, float64) {
	switch {
	case c.owner >= 0:
		return c.stop(reqEnd)
	case c.u.sys.replQuorum(c.mode()):
		return c.stop(reqQuorum)
	}
	c.at = reqDMDone
	return c.nd.cpuVisit(c.dmCPU)
}

// mode is the lock mode of the request's accesses. Failover serves
// read-only kinds, so its accesses are shared.
func (c *reqChain) mode() lock.Mode {
	if c.u.spec.Kind.Update() {
		return lock.Exclusive
	}
	return lock.Shared
}

func (c *reqChain) stop(at reqStep) (*sim.Resource, float64) {
	c.at = at
	return nil, 0
}

func (c *reqChain) fail(err error) (*sim.Resource, float64) {
	c.at, c.err = reqFailed, err
	return nil, 0
}

// cutOff dooms the transaction if site nd, where it is working, is down
// or cut off from its home by a partition, and returns the cause; it
// returns nil while nd is usable.
func (s *System) cutOff(st *txnState, nd *node) error {
	if s.faults == nil || (!nd.down && s.reachable(st.home, nd.id)) {
		return nil
	}
	if nd.down {
		return st.doom(errSiteCrash)
	}
	return st.doom(errPartitioned)
}

// decide makes one granule access through the site's cc.Protocol engine:
// a lock request under the 2PL family (with detection or prevention per
// the lock manager's discipline), a timestamp check under basic TO,
// read/write-set tracking under OCC, or a queue-claim admission check
// under QueCC. It takes no simulated time and never blocks, so the
// request chain makes it on whichever stack steps the chain; settle acts
// on the decision. At a site that is down or cut off it fails without
// making the access.
func (u *user) decide(st *txnState, nd *node, g int, mode lock.Mode) (cc.Decision, error) {
	// The site crashed since the request started (its CC state is gone;
	// never insert state into the fresh engine) — or it was partitioned
	// away from the coordinator mid-request.
	if err := u.sys.cutOff(st, nd); err != nil {
		return cc.Decision{}, err
	}
	return nd.ccp.Access(cc.TxnID(st.gid), cc.GranuleID(g), mode == lock.Exclusive), nil
}

// settle carries out decision d on the access to granule g in the user
// process: it aborts the victims the requester displaced, then records the
// grant, restarts the requester (errDeadlockVictim) or parks it until the
// engine grants the queued request.
func (u *user) settle(p *sim.Proc, st *txnState, nd *node, g int, d cc.Decision) error {
	sys := u.sys
	kind := u.spec.Kind
	for _, v := range d.Victims {
		if sys.ccCaps.Wounds {
			sys.woundTxn(int64(v))
		} else {
			sys.killTxn(int64(v))
		}
	}
	switch d.Outcome {
	case cc.Grant:
		sys.trace(st.gid, kind, nd.id, EvLockGrant, g)
	case cc.Restart:
		nd.deadlocks.Inc()
		sys.trace(st.gid, kind, nd.id, EvDeadlock, g)
		return errDeadlockVictim
	case cc.Block:
		sys.trace(st.gid, kind, nd.id, EvLockWait, g)
		if err := u.lockWait(p, st, nd); err != nil {
			switch err {
			case errLockTimeout:
				sys.trace(st.gid, kind, nd.id, EvTimeoutAbort, g)
			case errSiteCrash:
				// The site's crash event is already in the trace.
			default:
				sys.trace(st.gid, kind, nd.id, EvDeadlock, g)
			}
			return err
		}
		sys.trace(st.gid, kind, nd.id, EvLockGrant, g)
	}
	return nil
}

// lockWait parks the process until the site engine grants the queued
// request, initiating global deadlock probes first — but only where a
// probe detector exists: the detector (and with it all probe traffic) is
// armed solely for paradigms whose waits can form cycles, i.e. 2PL with
// deadlock detection. It returns errDeadlockVictim if the transaction is
// killed while waiting, or was wounded before it began to wait.
func (u *user) lockWait(p *sim.Proc, st *txnState, nd *node) error {
	sys := u.sys
	if st.doomed && sys.ccCaps.Wounds {
		// Wounded while it ran: its wounder may be waiting for it, and no
		// one interrupts it again, so waiting now could close a cycle that
		// never breaks. It aborts at the block instead; rollback withdraws
		// the queued request.
		return errDeadlockVictim
	}
	ev := sim.NewEvent(sys.env)
	nd.grantEv[st.gid] = ev
	st.parked = true
	if f := sys.faults; f != nil && f.plan.LockWaitTimeoutMS > 0 {
		sys.env.After(f.plan.LockWaitTimeoutMS, func() {
			// Stale once the lock was granted, the transaction was doomed
			// some other way, or this submission already ended.
			if ev.Triggered() || st.finished || st.doomed || !st.parked {
				return
			}
			st.doomed = true
			st.cause = errLockTimeout
			st.proc.Interrupt(errLockTimeout)
		})
	}
	if nd.detector != nil {
		sys.sendProbes(nd.id, nd.detector.Initiate(probe.TxnID(st.gid)))
		if rp := sys.cfg.Resilience.ProbeRetryMS; rp > 0 {
			// Periodic re-initiation for as long as this wait lasts: each
			// round carries a fresh probe sequence, so sites along the cycle
			// forward it again even if an earlier round was lost in transit.
			var rearm func()
			rearm = func() {
				if ev.Triggered() || st.finished || st.doomed || !st.parked || nd.down {
					return
				}
				nd.resil.ProbesResent++
				sys.trace(st.gid, st.kind, nd.id, EvReprobe, -1)
				sys.sendProbes(nd.id, nd.detector.Reprobe(probe.TxnID(st.gid)))
				sys.env.After(rp, rearm)
			}
			sys.env.After(rp, rearm)
		}
	}

	t0 := p.Now()
	err := ev.Wait(p)
	st.parked = false
	nd.lockWaits.Add(p.Now() - t0)
	if nd.detector != nil {
		nd.detector.ClearTxn(probe.TxnID(st.gid))
	}
	if err != nil {
		delete(nd.grantEv, st.gid)
		if cause, ok := interruptCause(err); ok && (cause == errLockTimeout || cause == errSiteCrash) {
			return cause
		}
		nd.globalDead.Inc()
		return errDeadlockVictim
	}
	return nil
}

// rollback undoes a deadlock victim at every participating site: the TA
// (rollback CPU) and TAIO (one database write per before-image) phases,
// then lock release, in participation order with message hops between
// sites for distributed transactions.
func (u *user) rollback(p *sim.Proc, st *txnState, participants []*node) {
	sys := u.sys
	home := participants[0]
	for i, nd := range participants {
		if sys.faults != nil && nd.down {
			// The site lost its volatile state; restart recovery undoes
			// this transaction's updates from the journal instead.
			continue
		}
		if i > 0 && !sys.reachable(home.id, nd.id) {
			// The abort message cannot be delivered: the participant
			// terminates its branch cooperatively at the heal (presumed
			// abort — unless the coordinator's durable commit record says
			// otherwise, which it cannot on this path).
			sys.queueTermination(nd.id, st.gid, false)
			continue
		}
		costs := nd.costsFor(u.spec.Kind)
		if i > 0 {
			p.Hold(sys.hop(home.id, nd.id, controlMsgBytes))
			must(nd, nd.tmStep(p, costs.TMCPU))
		}
		st.activeNode = nd.id
		sys.trace(st.gid, u.spec.Kind, nd.id, EvRollback, -1)
		must(nd, nd.cpuUse(p, costs.AbortCPU))
		undo := nd.journal.Rollback(st.gid, nd.store)
		for _, g := range undo {
			g := g
			must(nd, nd.cpuUse(p, costs.DMIOCPU))
			must(nd, nd.dbDiskFor(g).Do(p, disk.Write, g))
		}
		must(nd, nd.cpuUse(p, costs.UnlockCPU))
		nd.releaseTxn(st.gid)
		sys.trace(st.gid, u.spec.Kind, nd.id, EvRelease, -1)
		if nd.detector != nil {
			nd.detector.ClearTxn(probe.TxnID(st.gid))
		}
		if i > 0 {
			p.Hold(sys.hop(nd.id, home.id, controlMsgBytes))
		}
	}
	st.activeNode = home.id
}

// commitLocal commits a local transaction: TC processing, the force-written
// commit record (TCIO), and unlock (UL). It returns false — without writing
// the commit record — if a crash doomed the transaction before the commit
// point.
func (u *user) commitLocal(p *sim.Proc, st *txnState, home *node, costs PhaseCosts) bool {
	if st.doomed || home.down {
		return false
	}
	must(home, home.cpuUse(p, costs.CommitCPU))
	for i := 0; i < costs.CommitIOs; i++ {
		must(home, home.logDisk.Do(p, disk.ForceWrite, 0))
	}
	if st.doomed || home.down {
		return false
	}
	rec := home.journal.Commit(st.gid)
	home.journal.Force(rec.LSN)
	u.sys.trace(st.gid, u.spec.Kind, home.id, EvForceCommit, -1)
	u.propagateReplicas(p, st)
	must(home, home.cpuUse(p, costs.UnlockCPU))
	home.releaseTxn(st.gid)
	u.sys.trace(st.gid, u.spec.Kind, home.id, EvRelease, -1)
	return true
}

// twoPhaseCommit runs the centralized two-phase commit protocol of
// [GRAY79]: PREPARE to every slave (in parallel), a force-written commit
// record at the coordinator, COMMIT to every slave, then local unlock. The
// coordinator's waits for slave acknowledgments are the CW phase.
//
// It returns false — without writing the coordinator commit record, so
// presumed abort applies — if a participant crash or a prepare timeout
// aborts the protocol before the commit point. Once the commit record is
// force-written the transaction commits even if a slave crashes afterwards:
// that slave's prepared branch stays in doubt until its restart recovery
// resolves it against this durable record.
func (u *user) twoPhaseCommit(p *sim.Proc, st *txnState, home *node, slaves []*node) bool {
	sys := u.sys
	kind := u.spec.Kind
	costs := home.costsFor(kind)

	// TC: coordinator builds and sends PREPARE.
	must(home, home.cpuUse(p, costs.CommitCPU))

	// Phase 1: PREPARE processed in parallel at the slaves.
	if err := u.fanOutPrepare(p, st, home, slaves); err != nil {
		st.doom(err)
		if err == errPrepareTimeout {
			sys.trace(st.gid, kind, home.id, EvTimeoutAbort, -1)
		}
		return false
	}
	if st.doomed || home.down {
		return false
	}

	// The commit point: force-write the commit record at the coordinator.
	for i := 0; i < costs.CommitIOs; i++ {
		must(home, home.logDisk.Do(p, disk.ForceWrite, 0))
	}
	if st.doomed || home.down {
		return false
	}
	rec := home.journal.Commit(st.gid)
	home.journal.Force(rec.LSN)
	sys.trace(st.gid, kind, home.id, EvForceCommit, -1)
	u.propagateReplicas(p, st)

	// Phase 2: COMMIT processed in parallel at the slaves; each slave
	// writes its commit record lazily, releases its locks and acks.
	u.fanOutCommit(p, st, home, slaves)

	// UL at the coordinator.
	must(home, home.cpuUse(p, costs.UnlockCPU))
	home.releaseTxn(st.gid)
	sys.trace(st.gid, kind, home.id, EvRelease, -1)
	return true
}

// fanOutPrepare runs phase 1 at every slave in parallel helper processes and
// blocks the coordinator until every acknowledgment arrives — the CW delay
// center. It returns non-nil if any slave crashed before acknowledging or
// the plan's prepare timeout expired first.
func (u *user) fanOutPrepare(p *sim.Proc, st *txnState, home *node, slaves []*node) error {
	sys := u.sys
	kind := u.spec.Kind
	env := sys.env
	done := make([]*sim.Event, len(slaves))
	for i, nd := range slaves {
		i, nd := i, nd
		done[i] = sim.NewEvent(env)
		env.Spawn("prepare", func(hp *sim.Proc) {
			rcosts := nd.costsFor(kind)
			hp.Hold(sys.hop(home.id, nd.id, controlMsgBytes))
			if nd.down || st.doomed {
				done[i].Trigger(errSiteCrash)
				return
			}
			if !sys.reachable(home.id, nd.id) {
				// The PREPARE cannot be delivered; the slave never votes.
				done[i].Trigger(errPartitioned)
				return
			}
			must(nd, nd.tmStep(hp, rcosts.TMCPU))
			must(nd, nd.cpuUse(hp, rcosts.CommitCPU))
			if nd.down || st.doomed {
				done[i].Trigger(errSiteCrash)
				return
			}
			if !sys.reachable(home.id, nd.id) {
				// Partitioned away before voting: no prepared record was
				// written, so presumed abort covers the branch; the slave
				// terminates it cooperatively at the heal.
				sys.queueTermination(nd.id, st.gid, false)
				done[i].Trigger(errPartitioned)
				return
			}
			if sys.cfg.Params.SlaveCommitIOs[kind] > 0 {
				// The slave's prepared record: force-written before voting
				// yes, so a crash leaves the branch in doubt rather than
				// presumed aborted.
				nd.journal.Prepare(st.gid)
			}
			for j := 0; j < sys.cfg.Params.SlaveCommitIOs[kind]; j++ {
				must(nd, nd.logDisk.Do(hp, disk.ForceWrite, 0))
			}
			if nd.down {
				done[i].Trigger(errSiteCrash)
				return
			}
			if !sys.reachable(nd.id, home.id) {
				// The vote is durable but the YES ack cannot reach the
				// coordinator: the branch is in doubt. The coordinator
				// aborts (presumed abort), and the slave resolves against
				// the coordinator's durable log at the heal.
				sys.queueTermination(nd.id, st.gid, false)
				done[i].Trigger(errPartitioned)
				return
			}
			sys.trace(st.gid, kind, nd.id, EvPrepareAck, -1)
			hp.Hold(sys.hop(nd.id, home.id, controlMsgBytes))
			done[i].Trigger(nil)
		})
	}

	// An optional timeout bounds the coordinator's wait. armed keeps a
	// firing after the fan-out returned from interrupting whatever the
	// process parks on next.
	armed := false
	if f := sys.faults; f != nil && f.plan.PrepareTimeoutMS > 0 {
		armed = true
		env.After(f.plan.PrepareTimeoutMS, func() {
			if !armed || st.finished {
				return
			}
			p.Interrupt(errPrepareTimeout)
		})
	}
	var prepErr error
	for _, ev := range done {
		for {
			err := ev.Wait(p)
			if err == nil {
				break
			}
			if _, ok := interruptCause(err); ok {
				// The timeout fired; remember it and keep draining the
				// helpers (they always terminate, triggering their events).
				if prepErr == nil {
					prepErr = errPrepareTimeout
				}
				continue
			}
			if prepErr == nil {
				prepErr = err
			}
			break
		}
	}
	armed = false
	return prepErr
}

// fanOutCommit runs phase 2 at every slave in parallel helper processes and
// blocks the coordinator until all complete. The transaction is already
// durably committed: a slave that is down is simply skipped — its prepared
// branch is resolved by restart recovery.
func (u *user) fanOutCommit(p *sim.Proc, st *txnState, home *node, slaves []*node) {
	sys := u.sys
	kind := u.spec.Kind
	env := sys.env
	done := make([]*sim.Event, len(slaves))
	for i, nd := range slaves {
		i, nd := i, nd
		done[i] = sim.NewEvent(env)
		env.Spawn("commit", func(hp *sim.Proc) {
			rcosts := nd.costsFor(kind)
			hp.Hold(sys.hop(home.id, nd.id, controlMsgBytes))
			if nd.down {
				done[i].Trigger(nil)
				return
			}
			if !sys.reachable(home.id, nd.id) {
				// The COMMIT cannot be delivered: the slave's prepared
				// branch stays in doubt until it terminates cooperatively at
				// the heal, where the coordinator's durable commit record
				// resolves it to commit.
				sys.queueTermination(nd.id, st.gid, false)
				done[i].Trigger(nil)
				return
			}
			must(nd, nd.tmStep(hp, rcosts.TMCPU))
			if nd.down {
				done[i].Trigger(nil)
				return
			}
			sys.trace(st.gid, kind, nd.id, EvSlaveCommit, -1)
			nd.journal.Commit(st.gid)
			must(nd, nd.cpuUse(hp, rcosts.UnlockCPU))
			nd.releaseTxn(st.gid)
			sys.trace(st.gid, kind, nd.id, EvRelease, -1)
			hp.Hold(sys.hop(nd.id, home.id, controlMsgBytes))
			done[i].Trigger(nil)
		})
	}
	for _, ev := range done {
		if err := ev.Wait(p); err != nil {
			panic("testbed: commit fan-out interrupted: " + err.Error())
		}
	}
}

// mustAcquire obtains a pool server; the wait must never be interrupted
// (transactions are only killed while parked in lock waits).
func mustAcquire(r *sim.Resource, p *sim.Proc) {
	if err := r.Acquire(p); err != nil {
		panic("testbed: unexpected interrupt acquiring " + r.Name() + ": " + err.Error())
	}
}

// must panics on the error of a service step at nd that is never interrupted.
func must(nd *node, err error) {
	if err != nil {
		panic(fmt.Sprintf("testbed: unexpected interrupt at node %d: %v", nd.id, err))
	}
}
