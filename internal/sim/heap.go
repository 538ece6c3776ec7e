package sim

// Event kinds. A kernel event either resumes a process continuation or runs
// a bare callback; start events hand the process a coroutine first, and
// serve events run a resource grant for the process (see Resource).
const (
	evCall uint8 = iota
	evStart
	evResume
	evServe
)

// event is one scheduled kernel action. Events are pooled: the scheduler
// owns a free-list and steady-state scheduling performs no allocation.
// Events at equal times fire in schedule (seq) order.
type event struct {
	t    float64
	seq  int64
	kind uint8
	proc *Proc      // evStart, evResume
	err  error      // evResume
	fn   func()     // evCall
	w    *resWaiter // evServe
}

// eventBefore is the total dispatch order: time, then schedule order.
func eventBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is the future-event set: a 4-ary min-heap of pooled events
// ordered by (t, seq). Push and pop are O(log n) whatever the spread of
// pending times, and a 4-ary node's children share a cache line, so a
// sift-down is half as deep as a binary heap's at little extra cost per
// level. The order is total, so the dequeue sequence is exactly that of
// any other (t, seq) priority queue.
type eventHeap struct {
	h    []*event
	free freeList[event] // dispatched events, for reuse
}

// peek returns the minimum pending event without removing it, or nil.
func (q *eventHeap) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// push enqueues ev, sifting it up from the new leaf.
func (q *eventHeap) push(ev *event) {
	h := append(q.h, ev)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 4
		if !eventBefore(ev, h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = ev
	q.h = h
}

// pop removes and returns the minimum pending event, or nil. The last leaf
// sifts down from the root into the hole. The caller owns the event and
// must release it after dispatch.
func (q *eventHeap) pop() *event {
	n := len(q.h) - 1
	if n < 0 {
		return nil
	}
	h := q.h
	top, last := h[0], h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, end := c, min(c+4, n)
		for j := c + 1; j < end; j++ {
			if eventBefore(h[j], h[m]) {
				m = j
			}
		}
		if !eventBefore(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// reset discards all pending events and the pool; used by Shutdown, after
// which the environment is dead.
func (q *eventHeap) reset() {
	q.h, q.free = nil, nil
}
