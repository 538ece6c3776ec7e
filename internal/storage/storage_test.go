package storage

import (
	"math"
	"testing"
	"testing/quick"

	"carat/internal/rng"
)

func TestLayout(t *testing.T) {
	l := DefaultLayout()
	if l.Granules != 3000 || l.RecordsPerGran != 6 {
		t.Fatalf("default layout = %+v, want paper's 3000x6", l)
	}
	if l.Records() != 18000 {
		t.Fatalf("Records = %d", l.Records())
	}
	if l.GranuleOf(0) != 0 || l.GranuleOf(5) != 0 || l.GranuleOf(6) != 1 {
		t.Fatal("GranuleOf mapping wrong")
	}
}

func TestUniformPickDistinctInRange(t *testing.T) {
	l := Layout{Granules: 100, RecordsPerGran: 6}
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		k := 1 + rr.Intn(20)
		recs := Uniform{}.PickAppend(nil, r, l, k)
		if len(recs) != k {
			return false
		}
		seen := map[int]bool{}
		for _, rec := range recs {
			if rec < 0 || rec >= l.Records() || seen[rec] {
				return false
			}
			seen[rec] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotSkew(t *testing.T) {
	l := Layout{Granules: 1000, RecordsPerGran: 6}
	r := rng.New(2)
	h := Hotspot{Hot: 0.2, Frac: 0.8}
	hot := int(0.2 * float64(l.Records()))
	inHot := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		recs := h.PickAppend(nil, r, l, 1)
		if recs[0] < hot {
			inHot++
		}
	}
	frac := float64(inHot) / trials
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot fraction = %v, want ~0.8", frac)
	}
}

func TestHotspotDistinct(t *testing.T) {
	l := Layout{Granules: 10, RecordsPerGran: 2}
	r := rng.New(3)
	h := Hotspot{Hot: 0.5, Frac: 0.9}
	for i := 0; i < 100; i++ {
		recs := h.PickAppend(nil, r, l, 15)
		seen := map[int]bool{}
		for _, rec := range recs {
			if seen[rec] {
				t.Fatalf("duplicate record %d in %v", rec, recs)
			}
			seen[rec] = true
		}
	}
}

func TestGranulesOf(t *testing.T) {
	l := Layout{Granules: 10, RecordsPerGran: 6}
	gs := GranulesOf(l, []int{0, 5, 6, 13, 1})
	// records 0,5 -> g0; 6 -> g1; 13 -> g2; 1 -> g0 (dup)
	want := []int{0, 1, 2}
	if len(gs) != len(want) {
		t.Fatalf("granules = %v, want %v", gs, want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Fatalf("granules = %v, want %v", gs, want)
		}
	}
}

func TestYaoBoundaries(t *testing.T) {
	// k=0 -> 0 blocks.
	if Yao(18000, 6, 0) != 0 {
		t.Fatal("Yao(k=0) != 0")
	}
	// k=n -> all blocks.
	if got := Yao(60, 6, 60); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Yao full scan = %v, want 10", got)
	}
	// One record -> one block.
	if got := Yao(18000, 6, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Yao(k=1) = %v, want 1", got)
	}
	// m=1: every record its own block -> exactly k blocks.
	if got := Yao(100, 1, 17); math.Abs(got-17) > 1e-9 {
		t.Fatalf("Yao(m=1) = %v, want 17", got)
	}
}

func TestYaoPaperRegime(t *testing.T) {
	// For the paper's workloads (k records out of 18000, 6 per block),
	// g(t) is "very close to" k: sampling 16 records rarely doubles up.
	for _, k := range []int{4, 8, 16, 32, 80} {
		got := Yao(18000, 6, k)
		if got > float64(k) || got < float64(k)*0.98 {
			t.Fatalf("Yao(18000,6,%d) = %v, want within 2%% below %d", k, got, k)
		}
	}
}

func TestYaoMonotonicInK(t *testing.T) {
	prev := 0.0
	for k := 0; k <= 200; k += 5 {
		got := Yao(1200, 6, k)
		if got < prev-1e-12 {
			t.Fatalf("Yao not monotone at k=%d: %v < %v", k, got, prev)
		}
		prev = got
	}
}

func TestYaoMatchesMonteCarlo(t *testing.T) {
	l := Layout{Granules: 50, RecordsPerGran: 6}
	r := rng.New(11)
	const k, trials = 30, 20000
	var sum float64
	for i := 0; i < trials; i++ {
		recs := Uniform{}.PickAppend(nil, r, l, k)
		sum += float64(len(GranulesOf(l, recs)))
	}
	mc := sum / trials
	analytic := Yao(l.Records(), l.RecordsPerGran, k)
	if math.Abs(mc-analytic) > 0.05*analytic {
		t.Fatalf("Monte Carlo %v vs Yao %v", mc, analytic)
	}
}

func TestStoreTouchAndVersions(t *testing.T) {
	s := NewStore(Layout{Granules: 5, RecordsPerGran: 6})
	if s.ReadBlock(3) != 0 {
		t.Fatal("fresh store must be zeroed")
	}
	if v := s.Touch(3); v != 1 {
		t.Fatalf("Touch = %d, want 1", v)
	}
	s.WriteBlock(3, 42)
	if s.ReadBlock(3) != 42 {
		t.Fatal("WriteBlock not visible")
	}
	if s.Layout().Granules != 5 {
		t.Fatal("Layout accessor wrong")
	}
}

// TestZipfSkew checks the frequency skew of the bounded Zipf pattern: the
// empirical frequency ratio between the most popular record and a deep-tail
// record must track the theoretical (rank ratio)^theta, and the head of the
// distribution must absorb far more than its uniform share.
func TestZipfSkew(t *testing.T) {
	l := Layout{Granules: 100, RecordsPerGran: 6} // 600 records
	r := rng.New(5)
	const theta = 1.0
	z := NewZipf(theta)
	counts := make([]int, l.Records())
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[z.PickAppend(nil, r, l, 1)[0]]++
	}
	// P(rank 0)/P(rank 99) = 100^theta = 100.
	ratio := float64(counts[0]) / float64(counts[99]+1)
	if ratio < 50 || ratio > 200 {
		t.Fatalf("rank-0/rank-99 frequency ratio = %v, want ~100", ratio)
	}
	// The top 1% of records should draw well over a third of the accesses
	// at theta=1 (uniform would give them 1%).
	top := 0
	for i := 0; i < l.Records()/100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / trials; frac < 0.3 {
		t.Fatalf("top-1%% share = %v, want skewed well above uniform", frac)
	}
}

func TestZipfDistinctAndInRange(t *testing.T) {
	l := Layout{Granules: 10, RecordsPerGran: 2}
	r := rng.New(6)
	z := NewZipf(0.99)
	for i := 0; i < 200; i++ {
		recs := z.PickAppend(nil, r, l, 12)
		seen := map[int]bool{}
		for _, rec := range recs {
			if rec < 0 || rec >= l.Records() {
				t.Fatalf("record %d out of range", rec)
			}
			if seen[rec] {
				t.Fatalf("duplicate record %d in %v", rec, recs)
			}
			seen[rec] = true
		}
	}
}

func TestCheckPattern(t *testing.T) {
	for _, p := range []Pattern{nil, Uniform{}, Hotspot{Hot: 0.2, Frac: 0.8}, Hotspot{Hot: 0.5, Frac: 0}, Hotspot{Hot: 0.5, Frac: 1}, NewZipf(0), NewZipf(0.99), NewZipf(50)} {
		if err := CheckPattern(p); err != nil {
			t.Errorf("CheckPattern(%#v) = %v, want nil", p, err)
		}
	}
	for _, p := range []Pattern{
		Hotspot{Hot: 5, Frac: -2}, Hotspot{Hot: 0, Frac: 0.8}, Hotspot{Hot: 1, Frac: 0.8},
		Hotspot{Hot: 0.2, Frac: 1.5}, Hotspot{Hot: math.NaN(), Frac: 0.8}, Hotspot{Hot: 0.2, Frac: math.NaN()},
		NewZipf(-1), NewZipf(math.NaN()), NewZipf(math.Inf(1)),
	} {
		if err := CheckPattern(p); err == nil {
			t.Errorf("CheckPattern(%#v) accepted an out-of-range pattern", p)
		}
	}
}
