package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the reference ordering: a plain binary heap over (t, seq),
// mirroring the seed kernel's eventHeap. The kernel's 4-ary heap must
// produce exactly this dequeue sequence.
type refHeap []*event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return eventBefore(h[i], h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// steadyPending is the pending population a 128-site open fleet keeps in
// the future-event set. One event in 30 of it is a far-future timer (a
// timeout, retry backoff or fault schedule); the rest are service
// completions. The event kind field marks which, and a popped event's
// successor keeps its kind, so the mix holds steady.
const (
	steadyPending = 300
	steadyService = uint8(0)
	steadyTimer   = uint8(1)
)

// steadyKind is the kind of the i-th event of the initial population.
func steadyKind(i int) uint8 {
	if i%30 == 0 {
		return steadyTimer
	}
	return steadyService
}

// steadyDelay draws the delay from a pending event to its successor of the
// same kind: seconds ahead for a timer, tens of ms for a service time. The
// timers stretched the old calendar queue's bucket width until most of the
// near future shared one sorted bucket.
func steadyDelay(rng *rand.Rand, kind uint8) float64 {
	if kind == steadyTimer {
		return 1000 + rng.Float64()*5000
	}
	return rng.ExpFloat64() * 40
}

// TestCalQueueMatchesHeap drives the kernel's event heap and a reference
// binary heap with the same randomized workload and requires the identical
// (t, seq) dequeue sequence. The first phase mimics a simulation's churn: a
// moving "now" plus service-time-like increments at several scales, bursts
// of equal-time events and far-future outliers. The second holds the
// population steady at steadyPending, popping one event and scheduling its
// successor per step, the regime where the calendar queue it replaced
// degenerated into a sorted array.
func TestCalQueueMatchesHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		var q eventHeap
		var ref refHeap
		var seq int64
		now := 0.0

		pushKind := func(t float64, kind uint8) {
			seq++
			ev := q.free.get()
			ev.t, ev.seq, ev.kind = t, seq, kind
			q.push(ev)
			heap.Push(&ref, &event{t: t, seq: seq, kind: kind})
		}
		push := func(t float64) { pushKind(t, steadyService) }
		pop := func() (kind uint8) {
			want := heap.Pop(&ref).(*event)
			got := q.pop()
			if got == nil || got.t != want.t || got.seq != want.seq || got.kind != want.kind {
				t.Fatalf("seed %d: dequeue mismatch: heap %+v, reference %+v", seed, got, want)
			}
			now, kind = got.t, got.kind
			q.free.put(got)
			return kind
		}

		for step := 0; step < 20000; step++ {
			if rng.Float64() < 0.5 || len(ref) == 0 {
				switch b := rng.Float64(); {
				case b < 0.3:
					push(now) // same-time wakeups
				case b < 0.8:
					push(now + rng.Float64()*10)
				case b < 0.95:
					push(now + rng.Float64()*500)
				default:
					push(now + 1e6 + rng.Float64()*1e6) // far-future outlier
				}
			} else {
				pop()
			}
		}
		for len(ref) > 0 {
			pop()
		}

		for i := 0; i < steadyPending; i++ {
			k := steadyKind(i)
			pushKind(now+steadyDelay(rng, k), k)
		}
		for step := 0; step < 20000; step++ {
			k := pop()
			pushKind(now+steadyDelay(rng, k), k)
		}
		for len(ref) > 0 {
			pop()
		}
		if got := q.pop(); got != nil {
			t.Fatalf("seed %d: heap still has %+v after the reference drained", seed, got)
		}
	}
}
