package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHoldAdvancesClock(t *testing.T) {
	e := NewEnv()
	var times []float64
	e.Spawn("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Hold(5)
		times = append(times, p.Now())
		p.Hold(2.5)
		times = append(times, p.Now())
	})
	end := e.RunAll()
	if want := []float64{0, 5, 7.5}; len(times) != 3 || times[0] != want[0] || times[1] != want[1] || times[2] != want[2] {
		t.Fatalf("times = %v, want %v", times, want)
	}
	if end != 7.5 {
		t.Fatalf("end = %v, want 7.5", end)
	}
}

func TestHoldZeroIsNoop(t *testing.T) {
	e := NewEnv()
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.Hold(0)
		ran = true
	})
	e.RunAll()
	if !ran {
		t.Fatal("process did not run")
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	reached := false
	e.Spawn("p", func(p *Proc) {
		p.Hold(100)
		reached = true
	})
	end := e.Run(10)
	if end != 10 {
		t.Fatalf("end = %v, want 10", end)
	}
	if reached {
		t.Fatal("process ran past the bound")
	}
	e.Run(200)
	if !reached {
		t.Fatal("process did not resume on continued run")
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; simultaneous events must fire in schedule order", order)
		}
	}
}

func TestSpawnAtStartsLater(t *testing.T) {
	e := NewEnv()
	var start float64 = -1
	e.SpawnAt(42, "late", func(p *Proc) { start = p.Now() })
	e.RunAll()
	if start != 42 {
		t.Fatalf("start = %v, want 42", start)
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEnv()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, fmt.Sprintf("a@%v", p.Now()))
			p.Hold(2)
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Hold(1)
		for i := 0; i < 3; i++ {
			trace = append(trace, fmt.Sprintf("b@%v", p.Now()))
			p.Hold(2)
		}
	})
	e.RunAll()
	want := []string{"a@0", "b@1", "a@2", "b@3", "a@4", "b@5"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Spawn("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate to Run")
		}
	}()
	e.RunAll()
}

func TestLiveCountsProcesses(t *testing.T) {
	e := NewEnv()
	e.Spawn("short", func(p *Proc) { p.Hold(1) })
	e.Spawn("long", func(p *Proc) { p.Hold(10) })
	if e.Live() != 2 {
		t.Fatalf("Live = %d, want 2", e.Live())
	}
	e.Run(5)
	if e.Live() != 1 {
		t.Fatalf("Live after t=5: %d, want 1", e.Live())
	}
	e.RunAll()
	if e.Live() != 0 {
		t.Fatalf("Live at end: %d, want 0", e.Live())
	}
}

func TestResourceFCFSAndUtilization(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	var finish []float64
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			if err := r.Use(p, 10); err != nil {
				t.Errorf("Use: %v", err)
			}
			finish = append(finish, p.Now())
		})
	}
	end := e.RunAll()
	if end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	want := []float64{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v (FCFS)", finish, want)
		}
	}
	if u := r.Utilization(30); !almost(u, 1.0, 1e-9) {
		t.Fatalf("utilization = %v, want 1", u)
	}
	if n := r.Completions(); n != 3 {
		t.Fatalf("completions = %d, want 3", n)
	}
	if w := r.MeanWait(); !almost(w, 10, 1e-9) { // waits 0, 10, 20
		t.Fatalf("mean wait = %v, want 10", w)
	}
}

func TestResourceMultiServer(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "pool", 2)
	var finish []float64
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			if err := r.Use(p, 10); err != nil {
				t.Errorf("Use: %v", err)
			}
			finish = append(finish, p.Now())
		})
	}
	e.RunAll()
	// Two run [0,10], two run [10,20].
	want := []float64{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if u := r.Utilization(20); !almost(u, 1.0, 1e-9) {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

func TestResourceMeanPopulationLittlesLaw(t *testing.T) {
	// 3 customers, 1 server, service 10 each: L integral = 3*10 + 2*10 + 1*10 = 60,
	// over 30 time units -> mean population 2.
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) { _ = r.Use(p, 10) })
	}
	e.RunAll()
	if l := r.MeanPopulation(30); !almost(l, 2.0, 1e-9) {
		t.Fatalf("mean population = %v, want 2", l)
	}
	// Little's law: L = X * R with X = 3/30, R = mean residence (10+20+30)/3.
	x := r.Throughput(30)
	rr := r.MeanResidence()
	if !almost(x*rr, 2.0, 1e-9) {
		t.Fatalf("L=XR violated: X=%v R=%v", x, rr)
	}
}

func TestResourceInterruptLeavesQueue(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	var victim *Proc
	gotErr := make(chan error, 1)
	e.Spawn("holder", func(p *Proc) { _ = r.Use(p, 100) })
	victim = e.Spawn("victim", func(p *Proc) {
		err := r.Acquire(p)
		gotErr <- err
	})
	third := 0.0
	e.Spawn("third", func(p *Proc) {
		if err := r.Use(p, 5); err != nil {
			t.Errorf("third: %v", err)
		}
		third = p.Now()
	})
	e.Spawn("killer", func(p *Proc) {
		p.Hold(10)
		if !victim.Interrupt(errors.New("die")) {
			t.Error("interrupt not delivered")
		}
	})
	e.RunAll()
	err := <-gotErr
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("victim error = %v, want ErrInterrupted", err)
	}
	// third must get the server right after holder releases at t=100.
	if third != 105 {
		t.Fatalf("third finished at %v, want 105", third)
	}
}

func TestInterruptCarriesCause(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	cause := errors.New("deadlock victim")
	var got error
	victim := e.Spawn("v", func(p *Proc) {
		got = ev.Wait(p)
	})
	e.Spawn("k", func(p *Proc) {
		p.Hold(1)
		victim.Interrupt(cause)
	})
	e.RunAll()
	var ie *InterruptError
	if !errors.As(got, &ie) || ie.Cause != cause {
		t.Fatalf("got %v, want InterruptError{%v}", got, cause)
	}
}

func TestInterruptRunnableFails(t *testing.T) {
	e := NewEnv()
	p1 := e.Spawn("busy", func(p *Proc) { p.Hold(10) })
	e.Spawn("k", func(p *Proc) {
		p.Hold(1)
		if p1.Interrupt(errors.New("no")) {
			t.Error("interrupt of Hold-blocked process should fail")
		}
	})
	e.RunAll()
}

func TestEventBroadcast(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	result := errors.New("aborted")
	var woken []float64
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			if err := ev.Wait(p); err != result {
				t.Errorf("Wait = %v, want %v", err, result)
			}
			woken = append(woken, p.Now())
		})
	}
	e.Spawn("t", func(p *Proc) {
		p.Hold(7)
		ev.Trigger(result)
	})
	e.RunAll()
	if len(woken) != 3 {
		t.Fatalf("woken = %v, want 3 wakeups", woken)
	}
	for _, w := range woken {
		if w != 7 {
			t.Fatalf("woken at %v, want 7", w)
		}
	}
	// Waiting after the trigger returns immediately with the result.
	e2 := NewEnv()
	ev2 := NewEvent(e2)
	ev2.Trigger(nil)
	ran := false
	e2.Spawn("late", func(p *Proc) {
		if err := ev2.Wait(p); err != nil {
			t.Errorf("late Wait = %v", err)
		}
		ran = true
	})
	e2.RunAll()
	if !ran {
		t.Fatal("late waiter did not run")
	}
}

func TestDoubleTriggerKeepsFirstResult(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	first := errors.New("first")
	ev.Trigger(first)
	ev.Trigger(errors.New("second"))
	if ev.result != first {
		t.Fatalf("result = %v, want first", ev.result)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Hold(10) })
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		r := NewResource(e, "cpu", 1)
		var trace []string
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					_ = r.Use(p, float64(1+i))
					trace = append(trace, fmt.Sprintf("%d@%.1f", i, p.Now()))
				}
			})
		}
		e.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire must panic")
		}
	}()
	r.Release()
}
