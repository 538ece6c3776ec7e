package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// scriptVisit is one scripted station visit: a resource index and a
// service time.
type scriptVisit struct {
	r int
	d float64
}

// scriptChain is a Chain over scripted visits that logs each finished
// visit where the process would have continued after it, as a process
// making the visits with Use logs it after each Use returns.
type scriptChain struct {
	log    func(i int, err error)
	res    []*Resource
	visits []scriptVisit
	n      int // visits begun
}

func (c *scriptChain) Next() (*Resource, float64) {
	if c.n > 0 {
		c.log(c.n-1, nil)
	}
	if c.n == len(c.visits) {
		return nil, 0
	}
	v := c.visits[c.n]
	c.n++
	return c.res[v.r], v.d
}

// chainCounts tallies what a chainWorld exercised.
type chainCounts struct {
	saving      int64 // resumes the chains save over the Use calls
	midInterupt int   // interrupts delivered to a chain past its first visit
}

// chainWorld runs a scripted world of six actors that make chains of one
// to four visits to a 1-server and a 2-server resource (service times 0
// to 2.25, so some visits are empty), think, and interrupt one another,
// under two Run bounds that cut into service and then RunAll. viaChain
// makes each chain one Visits call instead of one Use per visit. It
// returns the trace — a line per finished or interrupted visit, and the
// resources' statistics at each stop — and the kernel's work counts. The
// Use world also counts the resumes the chains save: a chain resumes its
// process once if any of its visits waited, where the Use calls resume it
// once per visit that waited.
func chainWorld(seed uint64, viaChain bool) (string, KernelStats, chainCounts) {
	const actors, steps = 6, 10
	rnd := rand.New(rand.NewPCG(seed, 2))
	e := NewEnv()
	res := []*Resource{NewResource(e, "one", 1), NewResource(e, "two", 2)}
	var b strings.Builder
	var counts chainCounts
	procs := make([]*Proc, actors)
	for a := range actors {
		type step struct {
			op     int
			visits []scriptVisit
		}
		script := make([]step, steps)
		for i := range script {
			s := step{op: rnd.IntN(12)}
			if s.op < 8 {
				for range 1 + rnd.IntN(4) {
					s.visits = append(s.visits, scriptVisit{rnd.IntN(2), 0.75 * float64(rnd.IntN(4))})
				}
			}
			script[i] = s
		}
		procs[a] = e.Spawn(fmt.Sprint("a", a), func(p *Proc) {
			for k, s := range script {
				log := func(i int, err error) {
					v := s.visits[i]
					fmt.Fprintf(&b, "%v a%d step %d visit %d %s %v -> %v\n", p.Now(), a, k, i, res[v.r].Name(), v.d, err)
				}
				switch {
				case s.visits != nil && viaChain:
					c := &scriptChain{log: log, res: res, visits: s.visits}
					if err := p.Visits(c); err != nil {
						log(c.n-1, err)
						if c.n > 1 {
							counts.midInterupt++
						}
					}
				case s.visits != nil:
					waited := int64(0)
					for i, v := range s.visits {
						// No other process runs during a Use that completes in
						// place, so Resumes moves only if this one waited.
						before := e.Stats().Resumes
						err := res[v.r].Use(p, v.d)
						if e.Stats().Resumes != before {
							waited++
						}
						log(i, err)
						if err != nil {
							break
						}
					}
					counts.saving += max(waited-1, 0)
				case s.op < 10: // think
					p.Hold(float64(s.op - 7))
				default: // interrupt another actor, delivered only if it is queued
					target := (a + s.op) % actors
					ok := procs[target].Interrupt(errors.New("poke"))
					fmt.Fprintf(&b, "%v a%d interrupts a%d -> %v\n", p.Now(), a, target, ok)
				}
			}
		})
	}
	stop := func(t float64) {
		for _, r := range res {
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

// TestVisitsMatchUses is the differential test of visit chains: a chain
// of k visits, made over stations that competing processes share, must
// trace the same times, order, interrupt results and station statistics
// as k Use calls, dispatch the same events, fuse the same holds and serve
// the same grants, and resume its process once instead of once per visit
// that waited.
func TestVisitsMatchUses(t *testing.T) {
	var saved int64
	mid := 0
	for seed := uint64(1); seed <= 80; seed++ {
		uses, useStats, counts := chainWorld(seed, false)
		chains, chainStats, chainCounts := chainWorld(seed, true)
		if uses != chains {
			t.Fatalf("seed %d: Visits and Use diverge:\n--- Use\n%s--- Visits\n%s", seed, uses, chains)
		}
		if useStats.Events != chainStats.Events || useStats.FusedHolds != chainStats.FusedHolds || useStats.Served != chainStats.Served {
			t.Fatalf("seed %d: kernel work differs: Use %+v, Visits %+v", seed, useStats, chainStats)
		}
		if got := useStats.Resumes - chainStats.Resumes; got != counts.saving {
			t.Fatalf("seed %d: chains saved %d resumes (Use %d, Visits %d), want %d",
				seed, got, useStats.Resumes, chainStats.Resumes, counts.saving)
		}
		saved += counts.saving
		mid += chainCounts.midInterupt
	}
	t.Logf("chains saved %d resumes; %d interrupts reached a chain past its first visit", saved, mid)
	if saved == 0 || mid == 0 {
		t.Fatalf("saved %d resumes, %d mid-chain interrupts: want both > 0", saved, mid)
	}
}

// listChain visits stations in order and records where Next was called.
type listChain struct {
	env   *Env
	res   []*Resource
	d     []float64
	n     int
	calls []float64 // clock at each Next call
}

func (c *listChain) Next() (*Resource, float64) {
	c.calls = append(c.calls, c.env.Now())
	if c.n == len(c.res) {
		return nil, 0
	}
	c.n++
	return c.res[c.n-1], c.d[c.n-1]
}

// TestInterruptMidChain interrupts a chain while it is queued for its
// second visit. Visits returns the interrupt after the first visit
// completed, the abandoned visit leaves the station as an interrupted Use
// does, Next is not called again, and the process can go on to make
// visits.
func TestInterruptMidChain(t *testing.T) {
	e := NewEnv()
	cpu, disk := NewResource(e, "cpu", 1), NewResource(e, "disk", 1)
	e.Spawn("owner", func(p *Proc) { _ = disk.Use(p, 10) })
	c := &listChain{env: e, res: []*Resource{cpu, disk, cpu}, d: []float64{2, 3, 1}}
	var err, after error
	var at float64
	chain := e.Spawn("chain", func(p *Proc) {
		err = p.Visits(c)
		at = p.Now()
		after = cpu.Use(p, 1)
	})
	e.Spawn("poker", func(p *Proc) {
		p.Hold(5)
		if !chain.Interrupt(errors.New("poke")) {
			t.Error("the interrupt of a chain queued mid-way was not delivered")
		}
	})
	e.RunAll()
	if !errors.Is(err, ErrInterrupted) || at != 5 || after != nil {
		t.Fatalf("Visits returned %v at %v, then Use %v; want an interrupt at 5, then nil", err, at, after)
	}
	if len(c.calls) != 2 || c.calls[1] != 2 {
		t.Fatalf("Next called at %v, want at 0 and 2 only", c.calls)
	}
	if cpu.Completions() != 2 || disk.Completions() != 1 || disk.MeanWait() != 0 {
		t.Fatalf("completions cpu %d disk %d, disk wait %v; want 2, 1 and 0 (the abandoned wait is not recorded)",
			cpu.Completions(), disk.Completions(), disk.MeanWait())
	}
	if got := disk.MeanPopulation(11); got != 13.0/11 {
		t.Fatalf("disk population %v, want the owner's 10 plus the chain's 3 queued over 11", got)
	}
}

// TestShutdownMidChain shuts an environment down with one chain queued for
// its second visit and another in the service hold of its second visit,
// which the Run bound cut. Both processes must unwind, run their defers,
// never call Next again, and leave no goroutine behind.
func TestShutdownMidChain(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	cpu, disk := NewResource(e, "cpu", 1), NewResource(e, "disk", 1)
	e.Spawn("owner", func(p *Proc) { _ = disk.Use(p, 100) })
	queued := &listChain{env: e, res: []*Resource{cpu, disk, cpu}, d: []float64{1, 1, 1}}
	holding := &listChain{env: e, res: []*Resource{cpu, cpu, cpu}, d: []float64{2, 20, 1}}
	unwound, returned := 0, 0
	for _, c := range []*listChain{queued, holding} {
		e.Spawn("chain", func(p *Proc) {
			defer func() { unwound++ }()
			_ = p.Visits(c)
			returned++
		})
	}
	e.Run(10)
	if e.Live() != 3 {
		t.Fatalf("Live = %d before Shutdown, want 3", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 || unwound != 2 || returned != 0 {
		t.Fatalf("after Shutdown: Live = %d, %d defers run, %d Visits returned; want 0, 2, 0", e.Live(), unwound, returned)
	}
	if len(queued.calls) != 2 || len(holding.calls) != 2 {
		t.Fatalf("Next called %d and %d times, want 2 each", len(queued.calls), len(holding.calls))
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Shutdown, want the baseline %d", n, base)
	}
}

// panicChain panics on its second Next call.
type panicChain struct {
	r     *Resource
	calls int
}

func (c *panicChain) Next() (*Resource, float64) {
	if c.calls++; c.calls == 2 {
		panic("bad step")
	}
	return c.r, 1
}

// TestPanicInNext panics in a chain's Next, once on the kernel's stack
// (the first visit waited) and once on the process's (it completed in
// place). Either way the kernel reports the panic with the process's name,
// the process's defers run and the process ends.
func TestPanicInNext(t *testing.T) {
	for _, contended := range []bool{true, false} {
		e := NewEnv()
		cpu := NewResource(e, "cpu", 1)
		if contended {
			e.Spawn("rival", func(p *Proc) { _ = cpu.Use(p, 1) })
		}
		deferred := false
		e.Spawn("stepper", func(p *Proc) {
			defer func() { deferred = true }()
			_ = p.Visits(&panicChain{r: cpu})
		})
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			e.RunAll()
		}()
		if !strings.Contains(msg, "sim: process stepper panicked") || !strings.Contains(msg, "bad step") {
			t.Fatalf("contended=%v: kernel panic %q must name the process and its panic value", contended, msg)
		}
		if !deferred || e.Live() != 0 {
			t.Fatalf("contended=%v: defers run %v, Live = %d; want true and 0", contended, deferred, e.Live())
		}
	}
}
