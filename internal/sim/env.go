// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Model code is written as ordinary sequential Go functions ("processes")
// that advance simulated time with Hold, contend for Resources, and wait on
// Events. The kernel runs exactly one process at a time and orders
// simultaneous events by schedule order, so a simulation with a fixed seed
// is fully reproducible.
//
// Internally the kernel is a single-threaded state-machine event loop: a
// 4-ary heap of pooled event structs, dispatching process continuations
// inline via coroutine switches (iter.Pull). A process runs on a coroutine
// the kernel resumes and that yields back when it blocks — one user-space
// switch per wakeup, with the Go scheduler, channel locks and goroutine
// parking entirely off the hot path. Coroutines are recycled: when a
// process returns, its coroutine waits in an idle pool to run the next
// process started. The process API (Proc, Hold, Resource, Event) is
// a thin veneer over this loop, so model code still reads as sequential
// programs. A process can also hand the kernel a chain of station visits
// (Proc.Visits), which the kernel advances from visit to visit without
// switching into the process.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
)

// ErrInterrupted is returned from interruptible blocking calls when another
// process interrupts the waiter. Use errors.Is to test for it; the concrete
// error may carry a cause (see Interrupt).
var ErrInterrupted = errors.New("sim: interrupted")

// InterruptError is the error delivered to a parked process by Interrupt.
// It wraps ErrInterrupted and records the cause supplied by the interrupter.
type InterruptError struct {
	Cause error
}

func (e *InterruptError) Error() string {
	if e.Cause == nil {
		return "sim: interrupted"
	}
	return "sim: interrupted: " + e.Cause.Error()
}

// Unwrap reports ErrInterrupted so errors.Is(err, ErrInterrupted) holds.
func (e *InterruptError) Unwrap() error { return ErrInterrupted }

// killSentinel is the panic value used to unwind a process coroutine during
// Shutdown. It is recovered (and discarded) by the process wrapper.
type killSentinel struct{}

// detacher is implemented by the waiter records of the interruptible
// primitives (Resource, Event): detach removes the record from its
// waiter list so the interrupted process stops being a wakeup target.
type detacher interface{ detach() }

// Env is a simulation environment: a virtual clock and an event queue.
// Create one with NewEnv, spawn processes with Spawn, then call Run.
// An Env must not be shared between OS threads while running; all model
// code executes under the kernel's single-runnable discipline.
type Env struct {
	now     float64
	seq     int64
	procSeq int64
	q       eventHeap

	// nowQ is the same-time FIFO: events scheduled at exactly the
	// current clock reading (wakeups, zero-delay callbacks). They are sorted
	// by construction — seq is monotonic — so they bypass the heap
	// entirely. The clock cannot advance while the FIFO is non-empty (its
	// events precede everything in the heap), so the t == now invariant
	// holds for every entry.
	nowQ fifo[*event]

	running bool
	until   float64 // time bound of the active Run/RunAll, for Hold fusion

	nlive     int             // live (spawned, not yet terminated) processes
	procs     map[int64]*Proc // live processes by id, for Shutdown
	dead      bool            // set by Shutdown; the environment is finished
	panicked  interface{}
	panicProc string

	// evwPool recycles Event waiter records environment-wide: the testbed
	// creates Events per transaction, so a per-Event pool would never
	// amortize.
	evwPool freeList[eventWaiter]
	// idle holds coroutines whose process returned, parked until the next
	// process start reuses one. They are stopped once no process is alive
	// when runLoop returns, and in Shutdown: an environment with no live
	// process then holds no goroutine. Stopping them on every return would
	// recreate them at each Run boundary, such as the end of a warm-up.
	idle []*coro

	stats KernelStats
}

// KernelStats counts the kernel's own work since NewEnv. The counts are
// deterministic for a fixed seed, so they are the work side of a speed
// comparison: a change that keeps Events equal did the same simulation.
type KernelStats struct {
	Events     int64 // events dispatched (fused holds never become events)
	Resumes    int64 // switches into a process coroutine
	Coroutines int64 // coroutines created
	FusedHolds int64 // holds that advanced the clock in place
	Served     int64 // resource waits: queued grants served in the kernel
	PeakLive   int   // most processes alive at once
}

// Stats returns the kernel work counters.
func (e *Env) Stats() KernelStats { return e.stats }

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{procs: make(map[int64]*Proc)}
}

// Now returns the current simulation time.
func (e *Env) Now() float64 { return e.now }

// schedule enqueues a pooled event at time t. Events at exactly the current
// time go to the same-time FIFO; future events go to the event heap.
// Panics if t is in the past.
func (e *Env) schedule(t float64) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.q.free.get()
	ev.t, ev.seq = t, e.seq
	if t == e.now {
		e.nowQ.push(ev)
	} else {
		e.q.push(ev)
	}
	return ev
}

// peekNext returns the earliest pending event — the same-time FIFO head or
// the heap minimum, whichever is (t, seq)-first — or nil if none.
func (e *Env) peekNext() *event {
	c := e.q.peek()
	if e.nowQ.len() > 0 {
		nw := e.nowQ.peek()
		if c == nil || eventBefore(nw, c) {
			return nw
		}
	}
	return c
}

// popNext removes ev, which must be the event peekNext just returned.
func (e *Env) popNext(ev *event) {
	if e.nowQ.len() > 0 && e.nowQ.peek() == ev {
		e.nowQ.pop()
		return
	}
	e.q.pop()
}

// At schedules fn to run as a bare event (not a process) at absolute time t.
// The callback must not block; to model activity over time, spawn a process.
func (e *Env) At(t float64, fn func()) {
	ev := e.schedule(t)
	ev.kind, ev.fn = evCall, fn
}

// After schedules fn to run d time units from now.
func (e *Env) After(d float64, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// Run executes events until the event queue is empty or the clock would pass
// until. On return the clock reads until on both exit paths — queue drained
// early and bound reached — so a subsequent After(d) schedules relative to
// the end of the interval that was simulated, not relative to whenever the
// last event happened to fire. (The only exception: until in the past never
// moves the clock backward.)
//
// The return value is the time at which the simulation stopped executing:
// until when the bound was reached with events still pending, or the time of
// the last executed event when the queue drained first. Callers measuring
// rates over the simulated interval should use the returned stop time as the
// window end; a drained queue means nothing happened after it. Run may be
// called repeatedly to continue a paused simulation.
func (e *Env) Run(until float64) float64 {
	return e.runLoop(until, true)
}

// RunAll executes events until the queue drains, with no time bound. It
// returns the time of the last event executed (the clock is not advanced
// past it: with no bound there is no "end of interval" to advance to).
func (e *Env) RunAll() float64 {
	return e.runLoop(math.Inf(1), false)
}

// runLoop is the kernel: pop the minimum (t, seq) event, advance the clock,
// dispatch the continuation inline, repeat. bounded selects the drained-
// queue clock semantics (Run advances to until, RunAll does not). It
// returns the stop time: the clock as of the last executed event if the
// queue drained, the bound otherwise.
func (e *Env) runLoop(until float64, bounded bool) float64 {
	e.running = true
	e.until = until
	defer func() {
		e.running = false
		if e.nlive == 0 {
			e.stopIdle()
		}
	}()
	for {
		ev := e.peekNext()
		if ev == nil {
			stop := e.now
			if bounded && until > e.now {
				e.now = until
			}
			return stop
		}
		if ev.t > until {
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.popNext(ev)
		e.now = ev.t
		e.stats.Events++
		e.dispatch(ev)
		if e.panicked != nil {
			panic(fmt.Sprintf("sim: process %s panicked: %v", e.panicProc, e.panicked))
		}
	}
}

// dispatch runs one event. The event is released to the pool first, so the
// continuation can schedule freely without growing the pool.
func (e *Env) dispatch(ev *event) {
	switch ev.kind {
	case evResume:
		p, err := ev.proc, ev.err
		e.q.free.put(ev)
		if err == nil && p.co.at != nil {
			e.visited(p)
		} else {
			e.resume(p, err)
		}
	case evCall:
		fn := ev.fn
		e.q.free.put(ev)
		fn()
	case evServe:
		w := ev.w
		e.q.free.put(ev)
		w.serve()
	case evStart:
		p := ev.proc
		e.q.free.put(ev)
		if n := len(e.idle); n > 0 {
			p.co = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			p.co = e.newCoro()
		}
		p.co.p = p
		e.resume(p, nil)
	}
}

// resume transfers control into p's coroutine with err as the result of its
// pending yield, and returns when p blocks again or terminates.
func (e *Env) resume(p *Proc, err error) {
	e.stats.Resumes++
	p.resumeErr = err
	p.co.next()
}

// stopIdle ends every idle coroutine.
func (e *Env) stopIdle() {
	for _, c := range e.idle {
		c.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// coro is a process coroutine. It runs processes one after another: when a
// process function returns, the coroutine parks in the environment's idle
// pool, and the next process start resumes it with a new process, so a
// spawn costs neither a new goroutine nor regrowing its stack. A coroutine
// whose process panicked or was killed exits instead of parking.
type coro struct {
	p     *Proc // the process it runs; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// The process's station visits (see Proc.Visits): chain supplies the
	// visits after the current one (nil for a single Use or Acquire), at
	// is the station of the visit in progress (nil outside a visit),
	// start the time it began and seize whether it keeps its server.
	// fault is a panic raised by the chain's Next on the kernel's stack,
	// handed to the process to re-raise.
	chain Chain
	at    *Resource
	start float64
	seize bool
	fault any
}

// newCoro creates a coroutine; the caller hands it a process before the
// first resume.
func (e *Env) newCoro() *coro {
	e.stats.Coroutines++
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for c.p.run() && !e.dead {
			c.p = nil
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return // stopped while idle
			}
		}
	})
	return c
}

// Live returns the number of spawned processes that have not terminated.
func (e *Env) Live() int { return e.nlive }

// Terminated reports whether Shutdown has begun. Model code unwinding
// during a shutdown can test this to distinguish an abrupt teardown (a
// simulated crash: leave shared state frozen) from a normal completion.
func (e *Env) Terminated() bool { return e.dead }

// Shutdown terminates the simulation: every live process coroutine is
// unwound (via a kill sentinel panic recovered in the process wrapper) and
// all pending events are discarded. Without it, any process still parked
// when Run stops at its time bound is a suspended coroutine pinned forever —
// a leak that compounds across repeated simulations in one OS process.
//
// Processes are killed in ascending id order, one sorted pass per
// generation: a pass snapshots the live ids, sorts them once, and kills
// each (teardown is O(n log n), not the quadratic min-scan it replaced);
// processes spawned by dying defers are collected by the next pass.
// Deferred functions of unwound processes do run; they may schedule events
// (discarded) or block again (the blocking call unwinds immediately: the
// kill is permanent). The environment must not be used after Shutdown.
// Calling Shutdown on an already-drained or already-shut-down environment
// is a no-op.
func (e *Env) Shutdown() {
	if e.running {
		panic("sim: Shutdown called from inside Run")
	}
	e.dead = true
	for len(e.procs) > 0 {
		ids := make([]int64, 0, len(e.procs))
		for id := range e.procs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			p, ok := e.procs[id]
			if !ok {
				continue
			}
			if p.co == nil {
				// Its start event never fired, so it has no coroutine.
				e.nlive--
				delete(e.procs, p.id)
				continue
			}
			// The coroutine is suspended in a yield (the kernel is stopped,
			// so no process is mid-run). stop makes that yield report the
			// kill, unwinding the coroutine synchronously — including any
			// deferred functions, whose own blocking calls unwind the same
			// way.
			p.co.stop()
		}
	}
	e.stopIdle()
	e.nowQ = fifo[*event]{}
	e.q.reset()
	if e.panicked != nil {
		panic(fmt.Sprintf("sim: process %s panicked during shutdown: %v", e.panicProc, e.panicked))
	}
}

// Proc is the handle a process function uses to interact with the kernel.
// It is valid only inside the process function it was passed to.
type Proc struct {
	env  *Env
	id   int64
	name string
	fn   func(*Proc)

	// co is the coroutine running the process: nil before the start event
	// fires and again once the process ends, so Shutdown never unwinds a
	// process that has not started. resumeErr carries the wakeup result
	// across the switch.
	co        *coro
	resumeErr error

	// waiter is the waiter-list record the process is parked on. It is set
	// by interruptible blocking primitives and nil while the process is
	// runnable or parked non-interruptibly.
	waiter detacher
}

// Now returns the current simulation time.
func (p *Proc) Now() float64 { return p.env.now }

// Spawn creates a process running fn, starting at the current time.
// The process begins execution when the kernel reaches its start event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process running fn, starting at absolute time t >= now.
func (e *Env) SpawnAt(t float64, name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{env: e, id: e.procSeq, name: name, fn: fn}
	e.nlive++
	e.stats.PeakLive = max(e.stats.PeakLive, e.nlive)
	e.procs[p.id] = p
	ev := e.schedule(t)
	ev.kind, ev.proc = evStart, p
	return p
}

// run executes the model function on p's coroutine and on the way out —
// normal return, model panic, or kill — performs the liveness bookkeeping.
// It reports whether the function returned normally. Model panics are
// stashed for the kernel loop to rethrow with the process name; the kill
// sentinel is swallowed.
func (p *Proc) run() (returned bool) {
	defer func() {
		e := p.env
		if r := recover(); r != nil {
			if _, killed := r.(killSentinel); !killed {
				e.panicked = r
				e.panicProc = p.name
			}
		}
		p.co = nil
		e.nlive--
		delete(e.procs, p.id)
	}()
	p.fn(p)
	return true
}

// yield suspends the process until the kernel resumes it. The returned
// error is the wakeup result (nil for normal wakeups, an *InterruptError
// for interrupts). A kill delivered by Shutdown never returns: the yield
// reports it and the coroutine unwinds with a sentinel panic the process
// wrapper recovers.
func (p *Proc) yield() error {
	if !p.co.yield(struct{}{}) {
		panic(killSentinel{})
	}
	return p.resumeErr
}

// wake schedules process p to resume at the current time with err as the
// result of its pending yield. All wakeups flow through the event queue so
// that only one process runs at a time and simultaneous wakeups keep their
// schedule order.
func (e *Env) wake(p *Proc, err error) {
	ev := e.schedule(e.now)
	ev.kind, ev.proc, ev.err = evResume, p, err
}

// Hold advances the process's local time by d. It is not interruptible.
//
// Fast path ("hold fusion"): when no pending event precedes the hold's
// expiry and the expiry lies within the active Run bound, the kernel would
// pop the expiry event immediately after this process yields — nothing can
// run in between. In that case the clock advances in place and the
// coroutine switch, the queue traffic and the event are all skipped. A
// sequence number is still consumed so the slow path's dispatch order is
// reproduced exactly.
func (p *Proc) Hold(d float64) {
	if d < 0 {
		panic("sim: negative hold")
	}
	if !p.env.hold(p, d) {
		if err := p.yield(); err != nil {
			panic("sim: Hold interrupted: " + err.Error())
		}
	}
}

// hold starts p's hold of d >= 0 and reports whether it is already over:
// d is zero or the hold fused. Otherwise p's resume is scheduled at the
// expiry, and p must not run until then. Hold and a served resource grant
// share it, so both fuse under exactly the same test.
func (e *Env) hold(p *Proc, d float64) bool {
	if d == 0 {
		return true
	}
	t := e.now + d
	if e.running && t <= e.until && e.nowQ.len() == 0 {
		if min := e.q.peek(); min == nil || min.t > t {
			e.seq++
			e.stats.FusedHolds++
			e.now = t
			return true
		}
	}
	ev := e.schedule(t)
	ev.kind, ev.proc = evResume, p
	return false
}

// park blocks the process until woken. Before calling park the primitive
// must have registered the process on a waiter list and set p.waiter to
// that record. park clears the registration on wakeup.
func (p *Proc) park() error {
	err := p.yield()
	p.waiter = nil
	return err
}

// Interrupt wakes p with an *InterruptError carrying cause, provided p is
// parked on an interruptible primitive (resource wait or event wait).
// It reports whether the interrupt was delivered. Interrupting a runnable
// process or one blocked in Hold is not supported and returns false.
func (p *Proc) Interrupt(cause error) bool {
	if p.waiter == nil {
		return false
	}
	p.waiter.detach()
	p.waiter = nil
	p.env.wake(p, &InterruptError{Cause: cause})
	return true
}

// Interruptible reports whether the process is currently parked on an
// interruptible primitive.
func (p *Proc) Interruptible() bool { return p.waiter != nil }
