package experiment

import (
	"testing"

	"carat/internal/testbed"
)

func ccSweepOpts() SimOptions {
	return SimOptions{Seed: 99, Warmup: 20_000, Duration: 220_000}
}

func TestCCSweepSmoke(t *testing.T) {
	res, err := CCSweep(DefaultCCProtocols(), DefaultCCContentions(), []int{1, 2}, ccSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 3 * 2; len(res.Points) != want {
		t.Fatalf("got %d points, want %d", len(res.Points), want)
	}
	var occValidations, queccDeadlocks, queccProbes, twoPLDeadlocks int64
	for _, p := range res.Points {
		if p.CommittedTPS <= 0 {
			t.Fatalf("%s/%s/%d: no throughput", p.Protocol, p.Contention, p.Users)
		}
		switch p.Protocol {
		case "QueCC":
			queccDeadlocks += p.Deadlocks
			queccProbes += p.ProbesResent
			if p.ValidationAborts != 0 {
				t.Fatalf("QueCC cell reports validation aborts")
			}
		case "OCC":
			occValidations += p.ValidationAborts
			if p.Deadlocks != 0 || p.LockWaits != 0 {
				t.Fatalf("OCC cell blocks or deadlocks (deadlocks %d, waits %d)",
					p.Deadlocks, p.LockWaits)
			}
		case "2PL-detect":
			twoPLDeadlocks += p.Deadlocks
			if p.ValidationAborts != 0 {
				t.Fatalf("2PL cell reports validation aborts")
			}
		}
	}
	if queccDeadlocks != 0 || queccProbes != 0 {
		t.Fatalf("QueCC shows %d deadlocks, %d probe rounds — must be zero by construction",
			queccDeadlocks, queccProbes)
	}
	if occValidations == 0 {
		t.Fatal("OCC never validation-aborted across the whole contended grid")
	}
	if twoPLDeadlocks == 0 {
		t.Fatal("2PL never deadlocked across the whole contended grid — contention too low to compare")
	}
	// Rendering must cover every cell and every contention level.
	if got := len(res.Table().Rows); got != len(res.Points) {
		t.Fatalf("table has %d rows, want %d", got, len(res.Points))
	}
	for _, cont := range res.Contentions {
		f := res.ThroughputFigure(cont)
		if len(f.Series) != len(res.Protocols) {
			t.Fatalf("%s figure has %d series, want %d", cont, len(f.Series), len(res.Protocols))
		}
		for _, s := range f.Series {
			if len(s.X) != len(res.MPLs) {
				t.Fatalf("%s series %s has %d points, want %d", cont, s.Name, len(s.X), len(res.MPLs))
			}
		}
	}
}

// ccSweepAt runs the CC sweep's determinism grid on workers.
func ccSweepAt(t *testing.T, workers int) any {
	o := ccSweepOpts()
	o.Duration, o.Workers = 120_000, workers
	res, err := CCSweep(DefaultCCProtocols(), DefaultCCContentions()[:2], []int{1, 2}, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCCSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	requireSameAcrossWorkers(t, []int{1, 3, 8}, ccSweepAt)
}

func TestCCSweepRejectsEmptyGrid(t *testing.T) {
	if _, err := CCSweep(nil, DefaultCCContentions(), []int{1}, ccSweepOpts()); err == nil {
		t.Fatal("empty protocol list accepted")
	}
	if _, err := CCSweep(DefaultCCProtocols(), nil, []int{1}, ccSweepOpts()); err == nil {
		t.Fatal("empty contention list accepted")
	}
	if _, err := CCSweep(DefaultCCProtocols(), DefaultCCContentions(), nil, ccSweepOpts()); err == nil {
		t.Fatal("empty MPL list accepted")
	}
}

func BenchmarkCCSweep(b *testing.B) {
	opts := SimOptions{Seed: 7, Warmup: 10_000, Duration: 70_000}
	protocols := []testbed.CCProtocol{testbed.CC2PL, testbed.CCQueCC, testbed.CCOCC}
	contentions := DefaultCCContentions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CCSweep(protocols, contentions, []int{1}, opts); err != nil {
			b.Fatal(err)
		}
	}
	// Work counts of the first cell: 2PL at the first contention level.
	wl := ccSweepWorkload(protocols[0], contentions[0].Pattern, 1)
	reportKernelWork(b, wl.TestbedConfig(opts.Seed, opts.Warmup, opts.Duration), false)
}

// TestCCSweepCellsRunFullWindow runs the nine 2PL-detect cells of the CC
// sweep (uniform, hotspot-80/20 and zipf-0.99 access at 8, 16 and 32
// users) as `caratsim -ccsweep 1,2,4 -minutes 30` does — a two-minute
// warm-up and a 30-minute window, seed 1 — and requires each to measure
// its full window. Locking is the only paradigm of the sweep whose waits
// can cycle, and zipf-0.99 at 16 users is its thrashing cell (0.18 TPS,
// abort rate 0.88): a wedge there drains the event queue early and
// prints a short-window row that reads as a slow one.
func TestCCSweepCellsRunFullWindow(t *testing.T) {
	const warmup, duration = 2 * 60_000.0, 32 * 60_000.0
	for _, cont := range DefaultCCContentions() {
		for _, m := range []int{1, 2, 4} {
			wl := ccSweepWorkload(testbed.CC2PL, cont.Pattern, m)
			sys, err := testbed.New(wl.TestbedConfig(1, warmup, duration))
			if err != nil {
				t.Fatal(err)
			}
			if res := sys.Run(); res.Window != duration-warmup {
				t.Errorf("%s/%d users: window %.0f ms, want %.0f ms (the run wedged)", cont.Name, 8*m, res.Window, duration-warmup)
			}
		}
	}
}
