package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// serveWorld runs a scripted world of six actors that visit a 1-server and
// a 2-server resource (service times 0 to 2.25, so some visits are empty),
// think, and interrupt one another, under two Run bounds that cut into
// service and then RunAll. viaUse selects Use or Acquire + Hold + Release
// for every visit. It returns the trace, with the resources' statistics at
// each stop, and the kernel's work counts.
func serveWorld(seed uint64, viaUse bool) (string, KernelStats) {
	const actors, steps = 6, 12
	rnd := rand.New(rand.NewPCG(seed, 1))
	e := NewEnv()
	res := []*Resource{NewResource(e, "one", 1), NewResource(e, "two", 2)}
	var b strings.Builder
	procs := make([]*Proc, actors)
	for a := range actors {
		script := make([]int, steps)
		for i := range script {
			script[i] = rnd.IntN(12)
		}
		procs[a] = e.Spawn(fmt.Sprint("a", a), func(p *Proc) {
			for _, s := range script {
				switch {
				case s < 8: // visit: s%2 picks the resource, s/2 the service time
					r, d := res[s%2], 0.75*float64(s/2)
					err := visitResource(p, r, d, viaUse)
					fmt.Fprintf(&b, "%v a%d %s %v -> %v\n", p.Now(), a, r.Name(), d, err)
				case s < 10: // think
					p.Hold(float64(s - 7))
				default: // interrupt another actor, delivered only if it is queued
					target := (a + s) % actors
					ok := procs[target].Interrupt(errors.New("poke"))
					fmt.Fprintf(&b, "%v a%d interrupts a%d -> %v\n", p.Now(), a, target, ok)
				}
			}
		})
	}
	stop := func(t float64) {
		for _, r := range res {
			fmt.Fprintf(&b, "stop %v: %s wait=%v residence=%v completions=%d utilization=%v\n",
				t, r.Name(), r.MeanWait(), r.MeanResidence(), r.Completions(), r.Utilization(t))
		}
	}
	stop(e.Run(3.1))
	stop(e.Run(7.3))
	stop(e.RunAll())
	e.Shutdown()
	return b.String(), e.Stats()
}

// TestUseMatchesAcquireHoldRelease is the differential test of served
// grants: a queued Use is finished by the kernel, with one coroutine resume
// where Acquire + Hold + Release takes two, yet every scripted world must
// trace the same times, order, interrupt results and statistics either
// way, dispatch the same events and fuse the same holds.
func TestUseMatchesAcquireHoldRelease(t *testing.T) {
	var saved, served int64
	interrupted := 0
	for seed := uint64(1); seed <= 60; seed++ {
		use, useStats := serveWorld(seed, true)
		steps, stepStats := serveWorld(seed, false)
		if use != steps {
			t.Fatalf("seed %d: Use and Acquire+Hold+Release diverge:\n--- Use\n%s--- steps\n%s", seed, use, steps)
		}
		if useStats.Events != stepStats.Events || useStats.FusedHolds != stepStats.FusedHolds || useStats.Served != stepStats.Served {
			t.Fatalf("seed %d: kernel work differs: Use %+v, steps %+v", seed, useStats, stepStats)
		}
		if useStats.Resumes > stepStats.Resumes {
			t.Fatalf("seed %d: Use resumed %d times, Acquire+Hold+Release %d", seed, useStats.Resumes, stepStats.Resumes)
		}
		saved += stepStats.Resumes - useStats.Resumes
		served += useStats.Served
		interrupted += strings.Count(use, "interrupted")
	}
	t.Logf("served %d grants, saved %d resumes, interrupted %d visits", served, saved, interrupted)
	// The worlds must exercise what they are for: contention, and
	// interrupts that reach queued visits.
	if served == 0 || saved == 0 || interrupted == 0 {
		t.Fatalf("served %d grants, saved %d resumes, interrupted %d visits: want all > 0", served, saved, interrupted)
	}
}

// TestInterruptBetweenGrantAndServe interrupts a queued Use after Release
// granted it a server but before its serve event ran. The grant has already
// taken the process off the wait queue, so, as for a woken Acquire, the
// interrupt is not delivered and the Use completes its full service. An
// interrupt that reaches another Use while it is still queued is delivered.
func TestInterruptBetweenGrantAndServe(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	var waiter, other *Proc
	var waiterErr, otherErr error
	var done float64
	e.Spawn("holder", func(p *Proc) { _ = r.Use(p, 2) })
	e.Spawn("late", func(p *Proc) {
		// Its hold ends at 2 right after the holder's, so it runs between
		// the holder's Release and the serve event that scheduled.
		p.Hold(2)
		if r.waiters.len() != 0 || e.nowQ.len() != 1 || e.nowQ.peek().kind != evServe {
			t.Error("expected the waiter's serve event to be the only one pending")
		}
		if waiter.Interruptible() || waiter.Interrupt(errors.New("granted")) {
			t.Error("an interrupt between grant and serve was delivered")
		}
	})
	waiter = e.Spawn("waiter", func(p *Proc) {
		waiterErr = r.Use(p, 3)
		done = p.Now()
	})
	other = e.Spawn("other", func(p *Proc) { otherErr = r.Use(p, 1) })
	e.Spawn("poker", func(p *Proc) {
		p.Hold(1)
		if !other.Interrupt(errors.New("queued")) {
			t.Error("an interrupt of a queued Use was not delivered")
		}
	})
	e.RunAll()
	if waiterErr != nil || done != 5 {
		t.Fatalf("waiter's Use returned %v at %v, want nil at 5", waiterErr, done)
	}
	if !errors.Is(otherErr, ErrInterrupted) {
		t.Fatalf("other's Use returned %v, want an interrupt", otherErr)
	}
	if r.Completions() != 2 || e.Stats().Served != 1 {
		t.Fatalf("%d completions and %d served grants, want 2 and 1", r.Completions(), e.Stats().Served)
	}
}

// TestShutdownUnwindsServedUse shuts an environment down with one Use
// granted but not yet served (its serve event pending) and another in a
// served hold that the Run bound cut. Both processes must unwind, run their
// defers, and leave no goroutine behind.
func TestShutdownUnwindsServedUse(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	single, cpu := NewResource(e, "single", 1), NewResource(e, "cpu", 1)
	// The owner returns still holding single, so its waiter's grant comes
	// from a Release outside the kernel, and its serve event stays pending.
	e.Spawn("owner", func(p *Proc) { _ = single.Acquire(p) })
	unwound, reached := 0, 0
	use := func(r *Resource) func(*Proc) {
		return func(p *Proc) {
			defer func() { unwound++ }()
			_ = r.Use(p, 5)
			reached++
		}
	}
	e.Spawn("pending", use(single))
	e.Spawn("first", use(cpu))
	e.Spawn("cut", use(cpu)) // served at 5, in service until 10
	e.Run(7)
	single.Release()
	if e.nowQ.len() != 1 || e.nowQ.peek().kind != evServe {
		t.Fatal("expected the pending process's serve event to be pending")
	}
	if e.Live() != 2 || reached != 1 {
		t.Fatalf("Live = %d with %d Uses finished, want 2 and 1", e.Live(), reached)
	}
	e.Shutdown()
	if e.Live() != 0 || unwound != 3 || reached != 1 {
		t.Fatalf("after Shutdown: Live = %d, %d defers run, %d Uses finished; want 0, 3, 1", e.Live(), unwound, reached)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Shutdown, want the baseline %d", n, base)
	}
}
