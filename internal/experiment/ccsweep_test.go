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
