package sim

// Event is a one-shot synchronization point: any number of processes Wait
// on it, and a single Trigger releases them all. Once triggered, Wait
// returns immediately. A triggered Event can be re-armed with Reset.
//
// Trigger carries a result error that every waiter receives, which the
// CARAT testbed uses to deliver transaction outcomes (commit vs. abort) to
// processes blocked on protocol acknowledgments.
type Event struct {
	env       *Env
	name      string
	triggered bool
	result    error
	waiters   []*eventWaiter
}

type eventWaiter struct {
	p       *Proc
	removed bool
}

// detach implements the interrupt hook: the waiter becomes a tombstone that
// Trigger and Reset skip (and reclaim).
func (w *eventWaiter) detach() { w.removed = true }

// NewEvent creates an untriggered event.
func NewEvent(env *Env, name string) *Event {
	return &Event{env: env, name: name}
}

// Name returns the event name.
func (ev *Event) Name() string { return ev.name }

// Triggered reports whether Trigger has been called since the last Reset.
func (ev *Event) Triggered() bool { return ev.triggered }

// Result returns the error passed to Trigger (nil before triggering).
func (ev *Event) Result() error { return ev.result }

// Trigger fires the event, waking all waiters with result. Triggering an
// already-triggered event is a no-op that keeps the original result.
func (ev *Event) Trigger(result error) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.result = result
	ws := ev.waiters
	ev.waiters = ev.waiters[:0]
	for _, w := range ws {
		if !w.removed {
			w.p.waiter = nil
			ev.env.wake(w.p, nil)
		}
		ev.env.evwPool.put(w)
	}
}

// Reset re-arms a triggered event. It panics if processes are still waiting.
func (ev *Event) Reset() {
	for _, w := range ev.waiters {
		if !w.removed {
			panic("sim: Reset on event with waiters")
		}
	}
	for _, w := range ev.waiters {
		ev.env.evwPool.put(w)
	}
	ev.triggered = false
	ev.result = nil
	ev.waiters = ev.waiters[:0]
}

// Wait blocks (interruptibly) until the event is triggered, then returns
// the trigger result. If the event is already triggered it returns at once.
// On interrupt the interrupt error is returned instead of the result.
func (ev *Event) Wait(p *Proc) error {
	if ev.triggered {
		return ev.result
	}
	w := ev.env.evwPool.get()
	w.p = p
	ev.waiters = append(ev.waiters, w)
	p.waiter = w
	if err := p.park(); err != nil {
		return err
	}
	return ev.result
}
