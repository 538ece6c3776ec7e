package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// sectionChain is a critical section as one chain: it seizes the mutex,
// visits the shared station inside it and releases the mutex in Next.
type sectionChain struct {
	mutex, shared *Resource
	d             float64
	log           func(stage string)
	n             int // visits begun
}

func (c *sectionChain) Next() (*Resource, float64) {
	switch c.n++; c.n {
	case 1:
		return c.mutex, Seize
	case 2:
		c.log("granted")
		return c.shared, c.d
	}
	c.log("served")
	c.mutex.Release()
	return nil, 0
}

// seizeCounts tallies what a seizeWorld exercised.
type seizeCounts struct {
	seizeInterrupts  int // interrupts delivered while queued for the mutex
	sharedInterrupts int // interrupts delivered while queued for the shared station, mutex held
}

// seizeWorld runs a scripted world of six actors that make critical
// sections — the mutex held across a visit to a 2-server shared station
// (service times 0 to 2.25) — make plain visits to the shared station,
// think, and interrupt one another, under two Run bounds that cut into
// service and then RunAll. viaChain makes each critical section one
// Visits call (sectionChain) instead of Acquire + Use + Release. It
// returns the trace, with the stations' statistics at each stop, and the
// kernel's work counts.
func seizeWorld(seed uint64, viaChain bool) (string, KernelStats, seizeCounts) {
	const actors, steps = 6, 10
	rnd := rand.New(rand.NewPCG(seed, 3))
	e := NewEnv()
	mutex, shared := NewResource(e, "mutex", 1), NewResource(e, "shared", 2)
	var b strings.Builder
	var counts seizeCounts
	procs := make([]*Proc, actors)
	for a := range actors {
		script := make([]int, steps)
		for i := range script {
			script[i] = rnd.IntN(12)
		}
		procs[a] = e.Spawn(fmt.Sprint("a", a), func(p *Proc) {
			for k, s := range script {
				log := func(stage string) { fmt.Fprintf(&b, "%v a%d step %d %s\n", p.Now(), a, k, stage) }
				d := 0.75 * float64(s/2)
				switch {
				case s < 8 && s%2 == 0 && viaChain: // critical section
					c := &sectionChain{mutex: mutex, shared: shared, d: d, log: log}
					err := p.Visits(c)
					if err != nil && c.n == 2 {
						counts.sharedInterrupts++
						mutex.Release()
					} else if err != nil {
						counts.seizeInterrupts++
					}
					log(fmt.Sprint("-> ", err))
				case s < 8 && s%2 == 0:
					err := mutex.Acquire(p)
					if err == nil {
						log("granted")
						if err = shared.Use(p, d); err == nil {
							log("served")
						}
						mutex.Release()
					}
					log(fmt.Sprint("-> ", err))
				case s < 8: // a plain visit to the shared station
					log(fmt.Sprint("use -> ", shared.Use(p, d)))
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
		for _, r := range []*Resource{mutex, shared} {
			fmt.Fprintf(&b, "stop %v: %s wait=%v residence=%v completions=%d utilization=%v population=%v\n",
				t, r.Name(), r.MeanWait(), r.MeanResidence(), r.Completions(), r.Utilization(t), r.MeanPopulation(t))
		}
	}
	stop(e.Run(3.1))
	stop(e.Run(7.3))
	stop(e.RunAll())
	e.Shutdown()
	return b.String(), e.Stats(), counts
}

// TestSeizeChainMatchesAcquireUseRelease is the differential test of seize
// visits: a chain that seizes a mutex station, visits a shared station and
// releases the mutex in Next must trace the same times, order, interrupt
// results and station statistics as Acquire + Use + Release over the same
// competing processes, dispatch the same events, fuse the same holds and
// serve the same grants, and resume its process less often.
func TestSeizeChainMatchesAcquireUseRelease(t *testing.T) {
	var saved int64
	var counts seizeCounts
	for seed := uint64(1); seed <= 60; seed++ {
		steps, stepStats, _ := seizeWorld(seed, false)
		chains, chainStats, c := seizeWorld(seed, true)
		if steps != chains {
			t.Fatalf("seed %d: seize chains and Acquire+Use+Release diverge:\n--- steps\n%s--- chains\n%s", seed, steps, chains)
		}
		if stepStats.Events != chainStats.Events || stepStats.FusedHolds != chainStats.FusedHolds || stepStats.Served != chainStats.Served {
			t.Fatalf("seed %d: kernel work differs: steps %+v, chains %+v", seed, stepStats, chainStats)
		}
		if chainStats.Resumes > stepStats.Resumes {
			t.Fatalf("seed %d: chains resumed %d times, Acquire+Use+Release %d", seed, chainStats.Resumes, stepStats.Resumes)
		}
		saved += stepStats.Resumes - chainStats.Resumes
		counts.seizeInterrupts += c.seizeInterrupts
		counts.sharedInterrupts += c.sharedInterrupts
	}
	t.Logf("chains saved %d resumes; %d interrupts queued for the mutex, %d queued inside it",
		saved, counts.seizeInterrupts, counts.sharedInterrupts)
	if saved == 0 || counts.seizeInterrupts == 0 || counts.sharedInterrupts == 0 {
		t.Fatalf("saved %d resumes, %+v: want all > 0", saved, counts)
	}
}

// TestInterruptWhileSeizing interrupts a chain queued for the station it
// seizes. Visits returns the interrupt, Next is not called again, the
// abandoned wait is not recorded, and the next waiter behind it takes the
// server when the holder releases it.
func TestInterruptWhileSeizing(t *testing.T) {
	e := NewEnv()
	mutex, shared := NewResource(e, "mutex", 1), NewResource(e, "shared", 1)
	e.Spawn("holder", func(p *Proc) {
		_ = mutex.Acquire(p)
		p.Hold(10)
		mutex.Release()
	})
	var calls []string
	c := &sectionChain{mutex: mutex, shared: shared, d: 1, log: func(s string) { calls = append(calls, s) }}
	var err error
	seizer := e.Spawn("seizer", func(p *Proc) { err = p.Visits(c) })
	var grantedAt float64
	e.Spawn("behind", func(p *Proc) {
		p.Hold(1)
		if err := mutex.Acquire(p); err != nil {
			t.Errorf("the waiter behind was interrupted: %v", err)
		}
		grantedAt = p.Now()
		mutex.Release()
	})
	e.Spawn("poker", func(p *Proc) {
		p.Hold(5)
		if !seizer.Interrupt(errors.New("poke")) {
			t.Error("the interrupt of a chain queued to seize was not delivered")
		}
	})
	e.RunAll()
	if !errors.Is(err, ErrInterrupted) || c.n != 1 || len(calls) != 0 {
		t.Fatalf("Visits returned %v after %d Next calls, logged %v; want an interrupt after 1 and nothing logged", err, c.n, calls)
	}
	if grantedAt != 10 || mutex.Completions() != 2 || shared.Completions() != 0 {
		t.Fatalf("waiter behind granted at %v, completions mutex %d shared %d; want 10, 2, 0",
			grantedAt, mutex.Completions(), shared.Completions())
	}
	if got := mutex.MeanWait(); got != 4.5 {
		t.Fatalf("mutex mean wait %v, want the holder's 0 and the waiter behind's 9 (the abandoned wait is not recorded)", got)
	}
}

// TestNegativeServiceTimePanics checks that Seize is the only negative
// service time: any other panics, in Use and in a chain.
func TestNegativeServiceTimePanics(t *testing.T) {
	for _, viaChain := range []bool{false, true} {
		e := NewEnv()
		r := NewResource(e, "r", 1)
		e.Spawn("p", func(p *Proc) {
			if viaChain {
				_ = p.Visits(&listChain{env: e, res: []*Resource{r}, d: []float64{-0.5}})
			} else {
				_ = r.Use(p, -0.5)
			}
		})
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			e.RunAll()
		}()
		if !strings.Contains(msg, "negative hold") {
			t.Fatalf("viaChain=%v: panic %q, want a negative hold", viaChain, msg)
		}
	}
}
