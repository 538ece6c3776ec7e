package sim

// Event is a one-shot synchronization point: any number of processes Wait
// on it, and a single Trigger releases them all. Once triggered, Wait
// returns immediately.
//
// Trigger carries a result error that every waiter receives, which the
// CARAT testbed uses to deliver transaction outcomes (commit vs. abort) to
// processes blocked on protocol acknowledgments.
type Event struct {
	env       *Env
	triggered bool
	result    error
	waiters   []*eventWaiter
}

type eventWaiter struct {
	p       *Proc
	removed bool
}

// detach implements the interrupt hook: the waiter becomes a tombstone that
// Trigger skips (and reclaims).
func (w *eventWaiter) detach() { w.removed = true }

// NewEvent creates an untriggered event.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Triggered reports whether Trigger has been called.
func (ev *Event) Triggered() bool { return ev.triggered }

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
