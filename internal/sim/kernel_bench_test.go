package sim

import (
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: the primitive operations the testbed's hot path
// is built from. Run with `go test ./internal/sim -bench Kernel -benchmem`.

// BenchmarkKernelSchedule measures raw event scheduling and dispatch
// through the event heap: timestamps spread over a wide range so the
// events cannot ride the same-time now-queue.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	n := 0
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+float64(i%97)+1, func() { n++ })
	}
	e.RunAll()
	if n != b.N {
		b.Fatalf("dispatched %d events, want %d", n, b.N)
	}
}

// BenchmarkKernelQueue measures the event heap alone in a large fleet's
// steady state (see steadyPending): each iteration pops the minimum and
// schedules its successor of the same kind.
func BenchmarkKernelQueue(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	var q eventHeap
	var seq int64
	push := func(t float64, kind uint8) {
		seq++
		ev := q.free.get()
		ev.t, ev.seq, ev.kind = t, seq, kind
		q.push(ev)
	}
	for i := 0; i < steadyPending; i++ {
		k := steadyKind(i)
		push(steadyDelay(rng, k), k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		now, kind := ev.t, ev.kind
		q.free.put(ev)
		push(now+steadyDelay(rng, kind), kind)
	}
}

// BenchmarkKernelHoldPingPong measures the full suspend/resume cycle: two
// processes alternate holds, so every hold has a pending earlier event and
// fusion never applies — each iteration is one event plus two coroutine
// switches.
func BenchmarkKernelHoldPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	each := b.N/2 + 1
	for pi := 0; pi < 2; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < each; i++ {
				p.Hold(1)
			}
		})
	}
	e.RunAll()
}

// BenchmarkKernelHoldFused measures the fused fast path: a single process
// holding with nothing else pending advances the clock in place, with no
// event and no coroutine switch.
func BenchmarkKernelHoldFused(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	e.Run(float64(b.N) + 2)
}

// BenchmarkKernelWake measures the park/wake cycle through an Event: one
// waiter parks on a fresh event, a scheduled callback triggers it, repeat.
func BenchmarkKernelWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev := NewEvent(e)
			e.At(e.Now(), func() { ev.Trigger(nil) })
			_ = ev.Wait(p)
		}
	})
	e.RunAll()
}

// BenchmarkKernelSpawn measures process creation and teardown: spawn,
// start, immediate return.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", func(p *Proc) {})
		if i%1024 == 1023 {
			e.RunAll() // bound the pending-start backlog
		}
	}
	e.RunAll()
	if e.Live() != 0 {
		b.Fatalf("Live = %d, want 0", e.Live())
	}
}

// BenchmarkShutdownParked measures tearing down an environment with a large
// parked population — the regression case for the old O(n²) min-id rescan
// in Shutdown.
func BenchmarkShutdownParked(b *testing.B) {
	b.ReportAllocs()
	const parked = 10_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEnv()
		ev := NewEvent(e)
		for j := 0; j < parked; j++ {
			e.Spawn("p", func(p *Proc) { _ = ev.Wait(p) })
		}
		e.Run(1)
		b.StartTimer()
		e.Shutdown()
	}
}

// useBench runs one process that makes b.N operations, each a call of
// visit, and reports the kernel's resumes and events per operation. With
// blocked set, a callback fires every unit of time at half-unit offsets,
// so no hold of one unit or more that starts on a whole unit can fuse: the
// callback is pending before its expiry.
func useBench(b *testing.B, blocked bool, visit func(p *Proc)) {
	b.ReportAllocs()
	e := NewEnv()
	done := false
	if blocked {
		var tick func()
		tick = func() {
			if !done {
				e.After(1, tick)
			}
		}
		e.At(0.5, tick)
	}
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			visit(p)
		}
		done = true
	})
	e.RunAll()
	st := e.Stats()
	b.ReportMetric(float64(st.Resumes)/float64(b.N), "resumes/op")
	b.ReportMetric(float64(st.Events)/float64(b.N), "events/op")
}

func mustUse(b *testing.B, r *Resource, p *Proc, d float64) {
	if err := r.Use(p, d); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUseFreeFused measures an uncontended Use whose hold fuses:
// nothing else is pending, so it costs no event and no resume. This is the
// state perfbench's sim.use_ns.free probe measures.
func BenchmarkUseFreeFused(b *testing.B) {
	var r *Resource
	useBench(b, false, func(p *Proc) {
		if r == nil {
			r = NewResource(p.env, "cpu", 1)
		}
		mustUse(b, r, p, 1)
	})
}

// BenchmarkUseFreeUnfused measures an uncontended Use whose hold cannot
// fuse because another event is pending before its expiry: one hold-expiry
// event and one resume per Use, plus the pending callback's own event.
func BenchmarkUseFreeUnfused(b *testing.B) {
	var r *Resource
	useBench(b, true, func(p *Proc) {
		if r == nil {
			r = NewResource(p.env, "cpu", 1)
		}
		mustUse(b, r, p, 1)
	})
}

// BenchmarkUseContended measures a Use that queues: two processes share
// one server, so every grant is served in the kernel. Each Use costs one
// serve event and one resume; the served hold fuses, since the other
// process is queued and nothing else is pending.
func BenchmarkUseContended(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	each := b.N/2 + 1
	for range 2 {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < each; i++ {
				mustUse(b, r, p, 1)
			}
		})
	}
	e.RunAll()
	st := e.Stats()
	b.ReportMetric(float64(st.Resumes)/float64(2*each), "resumes/op")
	b.ReportMetric(float64(st.Events)/float64(2*each), "events/op")
}

// fourVisits is a chain of four unit visits alternating between two
// stations, restarted by reset.
type fourVisits struct {
	cpu, disk *Resource
	n         int
}

func (c *fourVisits) Next() (*Resource, float64) {
	if c.n == 4 {
		return nil, 0
	}
	c.n++
	if c.n%2 == 1 {
		return c.cpu, 1
	}
	return c.disk, 1
}

// BenchmarkVisitsChain4 and BenchmarkVisitsUse4 make the same four
// unfusable visits per operation (CPU, disk, CPU, disk, with a callback
// pending before every expiry), as one Visits chain or as four Use calls.
// Both dispatch the same events; the chain resumes its process once per
// operation, the Use calls four times.
func BenchmarkVisitsChain4(b *testing.B) {
	var c *fourVisits
	useBench(b, true, func(p *Proc) {
		if c == nil {
			c = &fourVisits{cpu: NewResource(p.env, "cpu", 1), disk: NewResource(p.env, "disk", 1)}
		}
		c.n = 0
		if err := p.Visits(c); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkVisitsUse4(b *testing.B) {
	var cpu, disk *Resource
	useBench(b, true, func(p *Proc) {
		if cpu == nil {
			cpu, disk = NewResource(p.env, "cpu", 1), NewResource(p.env, "disk", 1)
		}
		mustUse(b, cpu, p, 1)
		mustUse(b, disk, p, 1)
		mustUse(b, cpu, p, 1)
		mustUse(b, disk, p, 1)
	})
}
