package sim

import (
	"fmt"
	"testing"
)

// visitMode is how the actors of an interleave world take service from its
// shared resources: not at all (the original op set), through Use, or
// through the Acquire + Hold + Release sequence that Use stands for.
type visitMode int

const (
	noVisits visitMode = iota
	visitUse
	visitSteps
)

// visitResource takes d of service from r, through Use or through Acquire +
// Hold + Release, recording the residence Use records.
func visitResource(p *Proc, r *Resource, d float64, viaUse bool) error {
	if viaUse {
		return r.Use(p, d)
	}
	start := p.Now()
	if err := r.Acquire(p); err != nil {
		return err
	}
	p.Hold(d)
	r.residence.Add(p.Now() - start)
	r.Release()
	return nil
}

// interleaveTrace runs a small world of actors whose behavior is scripted
// by the fuzz input: each actor repeatedly holds, parks on one of two shared
// events, or interrupts another actor, then the driver runs the kernel
// and shuts it down. Unless visit is noVisits, a sixth op visits one of two
// shared resources (one and two servers), and the trace ends with their
// statistics and the kernel's work counts that do not depend on the visit
// mode. It returns a textual trace of everything that happened, so the
// fuzzer can assert determinism, and panics (failing the fuzz run) if the
// kernel misbehaves.
func interleaveTrace(script []byte, visit visitMode) string {
	e := NewEnv()
	ev, sig := NewEvent(e), NewEvent(e)
	res := []*Resource{NewResource(e, "r1", 1), NewResource(e, "r2", 2)}
	nops := byte(5)
	if visit != noVisits {
		nops = 6
	}
	var trace []string
	emit := func(format, who string, args ...any) {
		trace = append(trace, fmt.Sprintf("%.3f %s "+format, append([]any{e.Now(), who}, args...)...))
	}

	const actors = 4
	procs := make([]*Proc, actors)
	for a := 0; a < actors; a++ {
		a := a
		who := fmt.Sprintf("a%d", a)
		// Each actor consumes the bytes at positions a, a+actors, ...
		var ops []byte
		for i := a; i < len(script); i += actors {
			ops = append(ops, script[i])
		}
		procs[a] = e.Spawn(who, func(p *Proc) {
			for _, op := range ops {
				switch op % nops {
				case 0: // hold
					d := float64(op%7) + 0.5
					p.Hold(d)
					emit("held %.1f", who, d)
				case 1: // park on the shared event
					err := ev.Wait(p)
					emit("event wait -> %v", who, err)
				case 2: // trigger the shared event, then re-arm it with a fresh one
					ev.Trigger(nil)
					ev = NewEvent(e)
					emit("trigger", who)
				case 3: // signal traffic on the second event: even actors
					// trigger it with a value and re-arm it, odd actors wait
					if a%2 == 0 {
						sig.Trigger(fmt.Errorf("signal %d", op))
						sig = NewEvent(e)
						emit("signal %d", who, op)
					} else {
						err := sig.Wait(p)
						emit("signal wait -> %v", who, err)
					}
				case 4: // interrupt the next actor if it is parked
					target := procs[(a+1)%actors]
					ok := target.Interrupt(fmt.Errorf("poke from %s", who))
					emit("interrupt a%d -> %v", who, (a+1)%actors, ok)
				case 5: // visit a shared resource, for 0, 1 or 2 time units
					r, d := res[op/6%2], float64(op/12%3)
					err := visitResource(p, r, d, visit == visitUse)
					emit("visit %s %.0f -> %v", who, r.Name(), d, err)
				}
			}
			emit("done", who)
		})
	}

	bound := 1.0
	if len(script) > 0 {
		bound = float64(script[0]%32) + 1
	}
	stop := e.Run(bound)
	if stop > bound {
		panic(fmt.Sprintf("Run(%v) reported stop time %v past the bound", bound, stop))
	}
	if e.Now() != bound {
		panic(fmt.Sprintf("Run(%v) left the clock at %v", bound, e.Now()))
	}
	emit("run stopped at %.3f live=%d", "driver", stop, e.Live())
	if visit != noVisits {
		for _, r := range res {
			emit("%s wait=%v residence=%v completions=%d utilization=%v", "driver",
				r.Name(), r.MeanWait(), r.MeanResidence(), r.Completions(), r.Utilization(stop))
		}
		st := e.Stats()
		emit("events=%d fused=%d served=%d", "driver", st.Events, st.FusedHolds, st.Served)
	}
	e.Shutdown()
	if e.Live() != 0 {
		panic(fmt.Sprintf("Live = %d after Shutdown", e.Live()))
	}
	if !e.Terminated() {
		panic("Terminated() false after Shutdown")
	}
	out := ""
	for _, line := range trace {
		out += line + "\n"
	}
	return out
}

// FuzzKernelInterleave drives random interleavings of Hold, event waits,
// signal traffic, Interrupt and Shutdown through the kernel. Two properties
// must hold for every input: the kernel survives (no internal panic, clean
// teardown — checked inside interleaveTrace), and the run is deterministic
// (the same script yields a byte-identical trace).
func FuzzKernelInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{4, 4, 4, 4, 1, 1, 1, 1})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32})
	f.Add([]byte{3, 3, 3, 3, 2, 1, 0, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		first := interleaveTrace(script, noVisits)
		second := interleaveTrace(script, noVisits)
		if first != second {
			t.Fatalf("nondeterministic trace:\n--- first\n%s--- second\n%s", first, second)
		}
	})
}

// TestKernelInterleaveSeeds runs the fuzz seed scripts as a plain unit
// test, so the interleaving property is exercised on every `go test` run
// even without -fuzz.
func TestKernelInterleaveSeeds(t *testing.T) {
	seeds := [][]byte{
		{},
		{0, 1, 2, 3, 4},
		{4, 4, 4, 4, 1, 1, 1, 1},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32},
		{3, 3, 3, 3, 2, 1, 0, 4, 3, 2, 1, 0},
		{20, 11, 7, 3, 14, 255, 0, 0, 0, 9, 9, 9, 9, 4, 4, 1, 2, 3},
	}
	for i, s := range seeds {
		if a, b := interleaveTrace(s, noVisits), interleaveTrace(s, noVisits); a != b {
			t.Fatalf("seed %d nondeterministic:\n--- first\n%s--- second\n%s", i, a, b)
		}
	}
}

// interleaveUseSeeds are FuzzKernelInterleaveUse's seed scripts. An op
// with op%6 == 5 visits r1 if op/6 is even, r2 if odd, for op/12%3 units:
// 5 and 11 visit r1 and r2 for 0, 17 and 23 for 1, 29 and 35 for 2. Ops 4,
// 10, 16, 22 and 28 interrupt; 0, 6 and 36 hold for 0.5, 6.5 and 1.5. The
// last seed interrupts a1 while its visit queues behind a2's.
var interleaveUseSeeds = [][]byte{
	{},
	{5, 11, 17, 23, 29, 35, 41, 47},
	{17, 17, 17, 17, 29, 29, 29, 29, 4, 10, 16, 22},
	{1, 29, 29, 4, 29, 29, 16, 3, 41, 53, 0, 6, 2, 3},
	{31, 17, 29, 16, 41, 29, 4, 5, 53, 65, 28, 11, 0, 23, 22, 35},
	{36, 0, 29, 0, 4, 17},
}

// FuzzKernelInterleaveUse adds resource visits to the interleavings of
// FuzzKernelInterleave. Besides determinism and a clean teardown, every
// script must trace identically whether the visits go through Use, whose
// queued grants the kernel serves, or through Acquire + Hold + Release.
func FuzzKernelInterleaveUse(f *testing.F) {
	for _, s := range interleaveUseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		checkInterleaveUse(t, script)
	})
}

func checkInterleaveUse(t *testing.T, script []byte) {
	t.Helper()
	use := interleaveTrace(script, visitUse)
	if again := interleaveTrace(script, visitUse); again != use {
		t.Fatalf("nondeterministic trace:\n--- first\n%s--- second\n%s", use, again)
	}
	if steps := interleaveTrace(script, visitSteps); steps != use {
		t.Fatalf("Use and Acquire+Hold+Release diverge:\n--- Use\n%s--- steps\n%s", use, steps)
	}
}

// TestKernelInterleaveUseSeeds runs FuzzKernelInterleaveUse's seed scripts
// as a plain unit test.
func TestKernelInterleaveUseSeeds(t *testing.T) {
	for _, s := range interleaveUseSeeds {
		checkInterleaveUse(t, s)
	}
}
