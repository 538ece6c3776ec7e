package sim

import (
	"fmt"

	"carat/internal/stats"
)

// Resource is a multi-server service station with a FCFS queue. It models
// queueing centers such as a CPU or a disk: processes Acquire a server,
// Hold for their service time, and Release, or do all three with Use.
//
// A queued customer's grant is served in the kernel: the serve event that
// dispatch schedules records the wait and, for a Use, starts the service
// hold exactly as the woken process would have, so the process is resumed
// once, when its service ends, instead of once at the grant and again at
// the end. The serve event takes the wakeup's place in the event order, so
// the dispatch sequence is the same as if the process had woken itself.
// The end of a visit — residence, release and, in a chain, the start of
// the next visit — is likewise done by the kernel before the process is
// resumed (see Proc.Visits).
//
// A Resource collects the statistics a queueing study needs: utilization,
// mean queue length (waiting + in service), completion count, and the wait
// and residence time distributions.
type Resource struct {
	env     *Env
	name    string
	servers int
	inUse   int

	waiters fifo[*resWaiter] // the FCFS wait queue
	pool    freeList[resWaiter]

	busy        stats.TimeWeighted // number of busy servers over time
	population  stats.TimeWeighted // waiting + in service
	completions stats.Counter
	waitTime    stats.Tally
	residence   stats.Tally
}

type resWaiter struct {
	r       *Resource
	p       *Proc
	arrived float64
	d       float64 // service time held once granted: 0 for a Seize
	removed bool
}

// detach implements the interrupt hook: the waiter stays in the FCFS slice
// as a tombstone (reclaimed when dispatch reaches it) and the customer
// leaves the station's population immediately.
func (w *resWaiter) detach() {
	w.removed = true
	w.r.population.Adjust(-1, w.r.env.now)
}

// NewResource creates a station with the given number of servers (>= 1).
func NewResource(env *Env, name string, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	r := &Resource{env: env, name: name, servers: servers}
	r.busy.Set(0, env.now)
	r.population.Set(0, env.now)
	return r
}

// Name returns the station name.
func (r *Resource) Name() string { return r.name }

// Acquire obtains one server, waiting FCFS if none is free: a Seize visit
// (see Proc.Visits). The wait is interruptible; on interrupt the process
// leaves the queue and the error is returned.
func (r *Resource) Acquire(p *Proc) error { return p.visit(nil, r, Seize) }

// begin joins p to the station and either takes a free server and starts
// its hold of d, or queues FCFS for serve to do both. It reports whether
// the hold is already over (empty or fused); otherwise p must not run
// until its hold expiry or serve event.
func (r *Resource) begin(p *Proc, d float64) bool {
	r.population.Adjust(1, r.env.now)
	if r.waiters.len() == 0 && r.inUse < r.servers {
		r.grant()
		r.waitTime.Add(0)
		return r.env.hold(p, d)
	}
	w := r.pool.get()
	*w = resWaiter{r: r, p: p, arrived: r.env.now, d: d}
	r.waiters.push(w)
	p.waiter = w
	return false
}

// grant marks one more server busy.
func (r *Resource) grant() {
	r.inUse++
	r.busy.Set(float64(r.inUse), r.env.now)
}

// Release returns one server, counts one customer completion, and hands
// the server to the head of the queue.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic(fmt.Sprintf("sim: Release on %q with no server in use", r.name))
	}
	now := r.env.now
	r.inUse--
	r.busy.Set(float64(r.inUse), now)
	r.population.Adjust(-1, now)
	r.completions.Inc()
	r.dispatch()
}

// dispatch grants servers to queued waiters in FCFS order while capacity
// allows, skipping waiters removed by interrupts.
func (r *Resource) dispatch() {
	for r.waiters.len() > 0 {
		w := r.waiters.peek()
		if w.removed {
			r.pool.put(r.waiters.pop())
			continue
		}
		if r.inUse == r.servers {
			return
		}
		r.waiters.pop()
		r.grant()
		w.p.waiter = nil
		ev := r.env.schedule(r.env.now)
		ev.kind, ev.w = evServe, w
	}
}

// serve runs at the serve event of a granted waiter and does what the
// process would have done on waking: record the wait, then start the hold.
// The hold's end is handled like any visit's (see Env.visited): here, if
// the hold is empty or fused, or else at the hold's expiry event.
func (w *resWaiter) serve() {
	r, p, d := w.r, w.p, w.d
	e := r.env
	e.stats.Served++
	r.waitTime.Add(e.now - w.arrived)
	r.pool.put(w)
	if e.hold(p, d) {
		e.visited(p)
	}
}

// Use acquires a server, holds it for service time d, and releases it: a
// visit chain of one (see Proc.Visits). The queue wait is interruptible;
// once service starts it runs to completion. On interrupt, no service is
// performed.
func (r *Resource) Use(p *Proc, d float64) error { return p.visit(nil, r, d) }

// Utilization returns the time-average fraction of servers busy over the
// observation window, at time t.
func (r *Resource) Utilization(t float64) float64 {
	return r.busy.Mean(t) / float64(r.servers)
}

// MeanPopulation returns the time-average number of processes at the
// station (waiting or in service) at time t.
func (r *Resource) MeanPopulation(t float64) float64 { return r.population.Mean(t) }

// Completions returns the number of service completions (servers released).
func (r *Resource) Completions() int64 { return r.completions.N() }

// Throughput returns completions per unit time over the observation window.
func (r *Resource) Throughput(t float64) float64 { return r.completions.Rate(t) }

// MeanWait returns the average time spent queued before service.
func (r *Resource) MeanWait() float64 { return r.waitTime.Mean() }

// MeanResidence returns the average wait+service time observed by Use.
func (r *Resource) MeanResidence() float64 { return r.residence.Mean() }

// ResetStats truncates the statistics window at time t (e.g. after warm-up)
// without disturbing the station state.
func (r *Resource) ResetStats(t float64) {
	r.busy.ResetAt(t)
	r.busy.Set(float64(r.inUse), t)
	r.population.ResetAt(t)
	r.completions.ResetAt(t)
	r.waitTime.Reset()
	r.residence.Reset()
}
