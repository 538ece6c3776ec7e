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
// waiter parks, a scheduled callback triggers it, repeat.
func BenchmarkKernelWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	ev := NewEvent(e, "ev")
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.At(e.Now(), func() { ev.Trigger(nil) })
			_ = ev.Wait(p)
			ev.Reset()
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
		q := NewQueue[int](e, "q")
		for j := 0; j < parked; j++ {
			e.Spawn("p", func(p *Proc) { _, _ = q.Get(p) })
		}
		e.Run(1)
		b.StartTimer()
		e.Shutdown()
	}
}
