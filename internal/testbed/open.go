package testbed

import (
	"fmt"
	"math"

	"carat/internal/openload"
	"carat/internal/rng"
	"carat/internal/sim"
	"carat/internal/storage"
)

// This file is the open-arrival submission path: instead of (or alongside)
// the paper's closed terminal loops, transactions arrive from an unbounded
// population at a configurable rate λ, each arrival running the same
// Figure-3 retry loop as a closed user and then leaving the system. Open
// mode is the regime where the admission gate (Resilience) matters: offered
// load can exceed capacity, which a closed population cannot do by
// construction.
//
// All open-mode randomness lives on dedicated rng substreams (Split is
// pure), so a configuration with Open nil leaves every closed-mode draw —
// and therefore every golden snapshot — byte-identical.

// RNG substream bases for open mode. Closed mode uses 0..len(nodes) for
// node/disk streams, 10000+ for users and 20000+ for retry backoff; the
// open generator claims disjoint ranges.
const (
	openArrivalStreamBase = 30000 // per-site interarrival + burst sojourns
	openMixStreamBase     = 40000 // per-site class-mix draws
	openTxnStreamBase     = 50000 // per-site root of per-arrival streams
)

// OpenClass is one transaction class in an open arrival mix. Zero-valued
// fields inherit the Config-wide setting: Requests falls back to
// RequestsPerTxn, RemoteFrac to Config.RemoteFrac, Pattern to
// Config.Pattern. Weight is the class's share of the mix (non-positive
// weights count as 1; omit a class to exclude it).
type OpenClass struct {
	Kind       TxnKind
	Weight     float64
	Requests   int
	RemoteFrac float64
	Pattern    storage.Pattern
}

// OpenRampPoint anchors a piecewise-linear schedule for the system-wide
// arrival rate: λ is RatePerSec at AtMS, interpolated between points and
// held flat outside them.
type OpenRampPoint struct {
	AtMS       float64
	RatePerSec float64
}

// OpenConfig switches the testbed to open arrivals. The system-wide Poisson
// rate RatePerSec is split evenly across sites (or overridden per site);
// Burst superimposes an on-off modulator and Ramp a time-varying schedule
// (system-wide, split evenly; it overrides RatePerSec when non-empty).
// Classes defaults to one class per transaction kind with equal weights.
// A nil or zero OpenConfig is fully inert.
type OpenConfig struct {
	RatePerSec        float64
	PerSiteRatePerSec []float64
	Burst             openload.Burst
	Ramp              []OpenRampPoint
	Classes           []OpenClass
}

// Active reports whether open arrivals are configured. Any non-zero rate
// counts — a negative or NaN one too — so that validation rejects it.
func (o *OpenConfig) Active() bool {
	if o == nil {
		return false
	}
	return o.RatePerSec != 0 || len(o.PerSiteRatePerSec) > 0 || len(o.Ramp) > 0
}

// validate checks the open configuration and fills the default class mix in
// place (one class per kind — the MB-style balanced mix — restricted to the
// local kinds on a single-site system).
func (o *OpenConfig) validate(nodes int) error {
	if !finiteNonNeg(o.RatePerSec) {
		return fmt.Errorf("testbed: open arrival rate %v not finite and non-negative", o.RatePerSec)
	}
	if len(o.PerSiteRatePerSec) > 0 && len(o.PerSiteRatePerSec) != nodes {
		return fmt.Errorf("testbed: %d per-site open rates for %d nodes", len(o.PerSiteRatePerSec), nodes)
	}
	for i, r := range o.PerSiteRatePerSec {
		if !finiteNonNeg(r) {
			return fmt.Errorf("testbed: open rate %v for site %d not finite and non-negative", r, i)
		}
	}
	for i, rp := range o.Ramp {
		if !finiteNonNeg(rp.RatePerSec) {
			return fmt.Errorf("testbed: open ramp point %d rate %v not finite and non-negative", i, rp.RatePerSec)
		}
		if math.IsNaN(rp.AtMS) || math.IsInf(rp.AtMS, 0) {
			return fmt.Errorf("testbed: open ramp point %d time %v not finite", i, rp.AtMS)
		}
		if i > 0 && rp.AtMS < o.Ramp[i-1].AtMS {
			return fmt.Errorf("testbed: open ramp points not sorted by time")
		}
	}
	b := o.Burst
	if !finiteNonNeg(b.Factor) || !finiteNonNeg(b.OnMeanMS) || !finiteNonNeg(b.OffMeanMS) {
		return fmt.Errorf("testbed: open burst parameters must be finite and non-negative")
	}
	if b.Factor > 1 && !b.Active() {
		return fmt.Errorf("testbed: open burst factor %v needs positive on/off sojourn means", b.Factor)
	}
	if len(o.Classes) == 0 {
		for _, k := range TxnKinds {
			if k.Distributed() && nodes < 2 {
				continue
			}
			o.Classes = append(o.Classes, OpenClass{Kind: k, Weight: 1})
		}
	}
	for i, c := range o.Classes {
		if c.Kind < LRO || c.Kind > DU {
			return fmt.Errorf("testbed: open class %d has invalid kind", i)
		}
		if c.Kind.Distributed() && nodes < 2 {
			return fmt.Errorf("testbed: open class %d is distributed but the system has one site", i)
		}
		if c.Requests < 0 {
			return fmt.Errorf("testbed: open class %d request count negative", i)
		}
		if c.RemoteFrac < 0 || c.RemoteFrac > 1 {
			return fmt.Errorf("testbed: open class %d remote fraction %v out of [0,1]", i, c.RemoteFrac)
		}
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number ≥ 0 (false for NaN).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// finite reports whether every x is a finite number (false for NaN).
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// openGen is one site's arrival generator.
type openGen struct {
	site    NodeID
	proc    *openload.Process
	mixRnd  *rng.Rand // class-mix draws
	txnRoot *rng.Rand // root for per-arrival workload/backoff substreams
}

// openState is the system-wide open-arrival machinery.
type openState struct {
	cfg  OpenConfig
	gens []*openGen
	seq  int64     // arrival sequence number, across all sites
	cum  []float64 // cumulative class weights
}

// initOpen builds the per-site arrival processes and spawns their generator
// loops. Called from New only when the open configuration is active.
func (s *System) initOpen() {
	oc := *s.cfg.Open
	st := &openState{cfg: oc}
	total := 0.0
	for _, c := range oc.Classes {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		total += w
		st.cum = append(st.cum, total)
	}
	sites := float64(len(s.nodes))
	for i := range s.nodes {
		base := oc.RatePerSec / sites / 1000 // per-site events/ms
		if len(oc.PerSiteRatePerSec) > 0 {
			base = oc.PerSiteRatePerSec[i] / 1000
		}
		var ramp []openload.RampPoint
		for _, rp := range oc.Ramp {
			ramp = append(ramp, openload.RampPoint{AtMS: rp.AtMS, Rate: rp.RatePerSec / sites / 1000})
		}
		g := &openGen{
			site:    NodeID(i),
			proc:    openload.NewProcess(base, ramp, oc.Burst, s.rnd.Split(uint64(openArrivalStreamBase+i))),
			mixRnd:  s.rnd.Split(uint64(openMixStreamBase + i)),
			txnRoot: s.rnd.Split(uint64(openTxnStreamBase + i)),
		}
		st.gens = append(st.gens, g)
		s.env.Spawn(fmt.Sprintf("openarrivals-%d", i), s.openGenRun(g))
	}
	s.open = st
}

// openGenRun is the generator process body for one site: draw the next
// arrival time, sleep until it, hand the arrival off to its own process.
func (s *System) openGenRun(g *openGen) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for {
			t := g.proc.Next(p.Now())
			if math.IsInf(t, 1) {
				return
			}
			if t > p.Now() {
				p.Hold(t - p.Now())
			}
			s.openArrive(p, g)
		}
	}
}

// openArrive admits one arrival at g's site: draw its class, account for it
// in the open-queue statistics, and spawn a one-shot process that runs the
// standard submit-retry loop (execOne) and then leaves the system.
func (s *System) openArrive(p *sim.Proc, g *openGen) {
	st := s.open
	ci := 0
	if len(st.cum) > 1 {
		u := g.mixRnd.Float64() * st.cum[len(st.cum)-1]
		for ci < len(st.cum)-1 && u >= st.cum[ci] {
			ci++
		}
	}
	class := st.cfg.Classes[ci]
	seq := st.seq
	st.seq++
	home := s.nodes[g.site]
	home.openArrivals.Inc()
	home.openInSystem.Adjust(1, p.Now())
	// Arrivals have no transaction id yet (one is allocated per submission
	// attempt); the trace carries the negated arrival sequence instead.
	s.trace(-(seq + 1), class.Kind, g.site, EvArrival, -1)

	spec := UserSpec{Kind: class.Kind, Home: g.site}
	if class.Kind.Distributed() {
		spec.Remote = NodeID((int(g.site) + 1) % len(s.nodes))
	}
	u := &user{
		sys:  s,
		spec: spec,
		// Ids above the closed-user range; only used in process/event names.
		id:         int(1<<30 + seq),
		rnd:        g.txnRoot.Split(uint64(2 * seq)),
		backoffRnd: g.txnRoot.Split(uint64(2*seq + 1)),
		classReq:   class.Requests,
		classRF:    class.RemoteFrac,
		classPat:   class.Pattern,
	}
	s.env.Spawn("open", func(tp *sim.Proc) {
		u.execOne(tp)
		home.openInSystem.Adjust(-1, tp.Now())
	})
}

// Per-transaction workload parameters: open classes may override the
// Config-wide transaction size, remote fraction and access pattern; closed
// users always inherit them (their override fields stay zero).

// reqsPerTxn returns this transaction's size n.
func (u *user) reqsPerTxn() int {
	if u.classReq > 0 {
		return u.classReq
	}
	return u.sys.cfg.RequestsPerTxn
}

// remoteFrac returns this transaction's remote request fraction.
func (u *user) remoteFrac() float64 {
	if u.classRF > 0 {
		return u.classRF
	}
	return u.sys.cfg.RemoteFrac
}

// pattern returns this transaction's record access pattern.
func (u *user) pattern() storage.Pattern {
	if u.classPat != nil {
		return u.classPat
	}
	return u.sys.cfg.Pattern
}
