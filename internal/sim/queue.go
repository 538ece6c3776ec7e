package sim

// Queue is an unbounded FIFO mailbox carrying values of type T between
// processes. Put never blocks; Get blocks (interruptibly) until an item is
// available. Items are delivered to waiting processes in FCFS order.
type Queue[T any] struct {
	env     *Env
	name    string
	items   fifo[T] // the buffer
	waiters fifo[*queueWaiter[T]]
	pool    freeList[queueWaiter[T]]
}

type queueWaiter[T any] struct {
	p       *Proc
	removed bool
	item    T
	filled  bool
}

// detach implements the interrupt hook: the waiter becomes a tombstone that
// Put skips (and reclaims) when it reaches it.
func (w *queueWaiter[T]) detach() { w.removed = true }

// NewQueue creates an empty queue.
func NewQueue[T any](env *Env, name string) *Queue[T] {
	return &Queue[T]{env: env, name: name}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Waiting returns the number of processes blocked in Get.
func (q *Queue[T]) Waiting() int {
	n := 0
	for _, w := range q.waiters.items() {
		if !w.removed {
			n++
		}
	}
	return n
}

// Put appends an item. If a process is waiting, the item is handed to the
// longest-waiting one; otherwise it is buffered. Put may be called from
// process or event context and never blocks.
func (q *Queue[T]) Put(v T) {
	for q.waiters.len() > 0 {
		w := q.waiters.pop()
		if w.removed {
			q.pool.put(w)
			continue
		}
		w.item = v
		w.filled = true
		w.p.waiter = nil
		q.env.wake(w.p, nil)
		return
	}
	q.items.push(v)
}

// Get removes and returns the head item, blocking interruptibly while the
// queue is empty. On interrupt it returns the zero value and the interrupt
// error.
func (q *Queue[T]) Get(p *Proc) (T, error) {
	if q.items.len() > 0 {
		return q.items.pop(), nil
	}
	w := q.pool.get()
	w.p = p
	q.waiters.push(w)
	p.waiter = w
	if err := p.park(); err != nil {
		var zero T
		return zero, err
	}
	v := w.item
	q.pool.put(w)
	return v, nil
}

// TryGet removes and returns the head item without blocking. The boolean
// reports whether an item was available.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}
