package sim

import (
	"testing"
)

func TestShutdownKillsParkedProcesses(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	r := NewResource(e, "cpu", 1)
	reached := false
	e.Spawn("queued", func(p *Proc) {
		_ = ev.Wait(p) // parks forever: nothing ever triggers it
		reached = true
	})
	e.Spawn("holder", func(p *Proc) {
		_ = r.Use(p, 1e9) // still holding the server at the bound
		reached = true
	})
	e.Spawn("waiter", func(p *Proc) {
		_ = r.Acquire(p) // parks behind holder
		reached = true
	})
	e.Run(10)
	if e.Live() != 3 {
		t.Fatalf("Live before Shutdown = %d, want 3", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live after Shutdown = %d, want 0", e.Live())
	}
	if reached {
		t.Fatal("a killed process ran code past its blocking point")
	}
	if !e.Terminated() {
		t.Fatal("Terminated() must report true after Shutdown")
	}
}

func TestShutdownUnstartedProcess(t *testing.T) {
	e := NewEnv()
	ran := false
	e.SpawnAt(1e6, "late", func(p *Proc) { ran = true })
	e.Run(10)
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
	if ran {
		t.Fatal("unstarted process must never run")
	}
}

func TestShutdownRunsDefers(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	cleaned := false
	e.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		_ = ev.Wait(p)
	})
	e.Run(10)
	e.Shutdown()
	if !cleaned {
		t.Fatal("Shutdown must unwind the process stack, running defers")
	}
}

// TestShutdownRekillsReparkedProcess covers a process whose defer blocks
// again (here: on another event) while being killed — Shutdown must keep
// killing until the environment is empty.
func TestShutdownRekillsReparkedProcess(t *testing.T) {
	e := NewEnv()
	ev1 := NewEvent(e)
	ev2 := NewEvent(e)
	e.Spawn("stubborn", func(p *Proc) {
		defer func() {
			recover()       // swallow the first kill...
			_ = ev2.Wait(p) // ...and park again
		}()
		_ = ev1.Wait(p)
	})
	e.Run(10)
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

func TestShutdownIdempotentAndEmptyEnv(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Hold(1) })
	e.RunAll() // drains naturally
	e.Shutdown()
	e.Shutdown() // second call must be a no-op
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}

	// An environment that never ran anything.
	e2 := NewEnv()
	e2.Shutdown()
	if !e2.Terminated() {
		t.Fatal("empty env must still mark Terminated")
	}
}

// TestShutdownLargeParkedPopulation is the regression test for the old
// quadratic Shutdown: each kill round rescanned the whole process table for
// the minimum live id, so tearing down n parked processes cost O(n²) map
// scans. The rewrite sorts the ids once per round; this population size
// finishes instantly now and took seconds before.
func TestShutdownLargeParkedPopulation(t *testing.T) {
	const parked = 20_000
	e := NewEnv()
	ev := NewEvent(e)
	r := NewResource(e, "cpu", 1)
	unwound := 0
	for i := 0; i < parked; i++ {
		blockOnEvent := i%2 == 0
		e.Spawn("p", func(p *Proc) {
			defer func() { unwound++ }()
			if blockOnEvent {
				_ = ev.Wait(p)
			} else {
				_ = r.Acquire(p)
				p.Hold(1e9)
			}
		})
	}
	e.Run(10)
	if e.Live() != parked {
		t.Fatalf("Live before Shutdown = %d, want %d", e.Live(), parked)
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live after Shutdown = %d, want 0", e.Live())
	}
	if unwound != parked {
		t.Fatalf("unwound %d processes, want %d", unwound, parked)
	}
}

func TestShutdownDeterministicKillOrder(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		ev := NewEvent(e)
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				_ = ev.Wait(p)
			})
		}
		e.Run(10)
		e.Shutdown()
		return order
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("kill orders %v / %v, want 3 entries each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kill order differs between runs: %v vs %v", a, b)
		}
	}
}
