package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestCoroutineReuseSequential runs 10 000 short processes one after
// another, each spawning its successor: the kernel must run them all on
// the coroutines of the first two instead of creating one per process.
func TestCoroutineReuseSequential(t *testing.T) {
	const procs = 10_000
	e := NewEnv()
	ran := 0
	var step func(p *Proc)
	step = func(p *Proc) {
		p.Hold(1)
		if ran++; ran < procs {
			e.Spawn("step", step)
		}
	}
	e.Spawn("step", step)
	e.RunAll()
	st := e.Stats()
	if ran != procs || e.Live() != 0 {
		t.Fatalf("ran %d processes with %d live, want %d and 0", ran, e.Live(), procs)
	}
	if st.Coroutines > 2 {
		t.Fatalf("created %d coroutines for %d sequential processes, want at most 2", st.Coroutines, procs)
	}
}

// TestDrainedRunLeavesNoGoroutines runs 50 environments to the point where
// no process is alive, without Shutdown, as the benchmark probes and many
// tests do: the idle coroutine pool must not outlive the run. Half of them
// stop at a time bound with a bare callback still pending.
func TestDrainedRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEnv()
		done := NewEvent(e)
		r := NewResource(e, "cpu", 1)
		finished := 0
		for j := 0; j < 4; j++ {
			e.Spawn("worker", func(p *Proc) {
				_ = r.Use(p, 1)
				if finished++; finished == 4 {
					done.Trigger(nil)
				}
			})
		}
		e.Spawn("sink", func(p *Proc) { _ = done.Wait(p) })
		if i%2 == 0 {
			e.RunAll()
		} else {
			e.At(1e6, func() {})
			e.Run(100)
		}
		if e.Live() != 0 {
			t.Fatalf("env %d: Live = %d after the run, want 0", i, e.Live())
		}
	}
	// A coroutine's goroutine exits synchronously when it is stopped.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 50 finished runs, want the baseline %d", n, base)
	}
}

// TestShutdownRunsDefersOnReusedCoroutine parks a process on the coroutine
// an earlier process returned to the pool: Shutdown must still unwind it
// and run its defers, and the earlier process's stale handle must not reach
// the new occupant.
func TestShutdownRunsDefersOnReusedCoroutine(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	first := e.Spawn("first", func(p *Proc) {})
	cleaned := false
	var got error
	e.SpawnAt(1, "second", func(p *Proc) {
		defer func() { cleaned = true }()
		got = ev.Wait(p)
	})
	e.Run(2)
	if c := e.Stats().Coroutines; c != 1 {
		t.Fatalf("created %d coroutines, want 1 (second reuses first's)", c)
	}
	if first.Interrupt(errors.New("stale")) || first.Interruptible() {
		t.Fatal("the handle of a finished process reached its coroutine's next process")
	}
	e.Run(3)
	if got != nil {
		t.Fatalf("second woke with %v, want it still parked", got)
	}
	base := runtime.NumGoroutine()
	e.Shutdown()
	if !cleaned {
		t.Fatal("Shutdown must unwind a process on a reused coroutine, running defers")
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown, want 0", e.Live())
	}
	if n := runtime.NumGoroutine(); n > base-1 {
		t.Fatalf("%d goroutines after Shutdown, want %d", n, base-1)
	}
}

// TestPanicCoroutineNotPooled makes a process panic on a reused coroutine:
// the kernel must still name that process, and the coroutine must exit
// rather than return to the pool.
func TestPanicCoroutineNotPooled(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	e.Spawn("parked", func(p *Proc) { _ = ev.Wait(p) })
	e.Spawn("first", func(p *Proc) {})
	e.SpawnAt(1, "boom", func(p *Proc) { panic("kaboom") })
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.RunAll()
	}()
	if !strings.Contains(msg, "boom") || !strings.Contains(msg, "kaboom") {
		t.Fatalf("kernel panic %q must name the process and its panic value", msg)
	}
	if c := e.Stats().Coroutines; c != 2 {
		t.Fatalf("created %d coroutines, want 2 (boom reuses first's)", c)
	}
	if len(e.idle) != 0 {
		t.Fatalf("%d coroutines pooled after the panic, want 0", len(e.idle))
	}
}
