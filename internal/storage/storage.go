// Package storage models the partitioned CARAT database: each site holds a
// file of fixed-size blocks ("granules"), each packing a fixed number of
// records. Locking, logging and I/O all operate at block granularity, as in
// the testbed (Section 2: 3,000 blocks of 512 bytes, six records per block).
//
// The package also provides the access-pattern generators used by the
// synthetic workload and Yao's formula [YAO77] for the expected number of
// distinct blocks touched when sampling records without replacement.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"carat/internal/rng"
)

// Layout describes one site's database file.
type Layout struct {
	Granules       int // Ng: blocks at the site
	RecordsPerGran int // Nb: records per block
}

// DefaultLayout returns the layout used in the paper's experiments:
// 3,000 blocks, six 85-byte records per 512-byte block.
func DefaultLayout() Layout { return Layout{Granules: 3000, RecordsPerGran: 6} }

// Records returns the total number of records at the site.
func (l Layout) Records() int { return l.Granules * l.RecordsPerGran }

// GranuleOf returns the block holding record id.
func (l Layout) GranuleOf(record int) int { return record / l.RecordsPerGran }

// Scale returns the global layout of an n-site fleet in which every site
// holds a copy of l's shape: n times the granules, same packing. The
// placement directory draws anchor records over this global space.
func (l Layout) Scale(n int) Layout {
	return Layout{Granules: l.Granules * n, RecordsPerGran: l.RecordsPerGran}
}

// Pattern selects the records a request touches.
type Pattern interface {
	// PickAppend appends k distinct record ids from a site with the
	// layout to dst and returns the extended slice.
	PickAppend(dst []int, r *rng.Rand, l Layout, k int) []int
}

// CheckPattern reports a pattern whose parameters are out of range: a
// Hotspot needs Hot in (0,1) and Frac in [0,1], a Zipf a finite Theta ≥ 0.
// Other patterns have no parameters to check.
func CheckPattern(p Pattern) error {
	switch p := p.(type) {
	case Hotspot:
		if !(p.Hot > 0 && p.Hot < 1) || !(p.Frac >= 0 && p.Frac <= 1) {
			return fmt.Errorf("hotspot hot=%v frac=%v out of range: want hot in (0,1) and frac in [0,1]", p.Hot, p.Frac)
		}
	case *Zipf:
		if !(p.Theta >= 0) || math.IsInf(p.Theta, 1) {
			return fmt.Errorf("zipf theta %v not finite and non-negative", p.Theta)
		}
	}
	return nil
}

// Uniform picks records uniformly at random without replacement — the
// paper's workload assumption ("records are chosen randomly from among all
// the database records located at the site").
type Uniform struct{}

// PickAppend implements Pattern.
func (Uniform) PickAppend(dst []int, r *rng.Rand, l Layout, k int) []int {
	return r.SampleIntsAppend(dst, l.Records(), k)
}

// Hotspot implements the b–c rule: a fraction Frac of accesses go to the
// first Hot fraction of the records. Hotspot{Hot: 0.2, Frac: 0.8} is the
// classic 80/20 skew. It generalizes the paper's uniform assumption for the
// nonuniform-access extension flagged in its conclusions.
type Hotspot struct {
	Hot  float64 // fraction of records that are hot (0 < Hot < 1)
	Frac float64 // fraction of accesses aimed at the hot set
}

// PickAppend implements Pattern. Records are distinct within one call.
func (h Hotspot) PickAppend(dst []int, r *rng.Rand, l Layout, k int) []int {
	n := l.Records()
	hot := int(h.Hot * float64(n))
	if hot < 1 {
		hot = 1
	}
	if hot >= n {
		return r.SampleIntsAppend(dst, n, k)
	}
	base := len(dst)
	for len(dst)-base < k {
		var rec int
		if r.Bool(h.Frac) {
			rec = r.Intn(hot)
		} else {
			rec = hot + r.Intn(n-hot)
		}
		if slices.Contains(dst[base:], rec) {
			continue
		}
		dst = append(dst, rec)
	}
	return dst
}

// Zipf picks records from a bounded Zipf distribution over the site's
// records: rank i (0-based, record 0 the most popular) is drawn with
// probability proportional to 1/(i+1)^Theta. Theta = 0 degenerates to
// uniform; the YCSB-style default is Theta ≈ 0.99. Records are distinct
// within one call, like the other patterns.
//
// Sampling inverts the exact cumulative distribution with a binary search;
// the CDF table is built once per layout and cached, so a single Zipf value
// can be shared across concurrent simulations (the cache is mutex-guarded
// and the table itself is immutable once published).
type Zipf struct {
	Theta float64

	mu     sync.Mutex
	cdf    []float64
	cdfFor Layout
}

// NewZipf returns a Zipf pattern with the skew exponent theta > 0.
func NewZipf(theta float64) *Zipf { return &Zipf{Theta: theta} }

// table returns the CDF over the layout's records, building it on first use.
func (z *Zipf) table(l Layout) []float64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.cdf != nil && z.cdfFor == l {
		return z.cdf
	}
	n := l.Records()
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), z.Theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	z.cdf, z.cdfFor = cdf, l
	return cdf
}

// PickAppend implements Pattern. Records are distinct within one call.
func (z *Zipf) PickAppend(dst []int, r *rng.Rand, l Layout, k int) []int {
	cdf := z.table(l)
	n := len(cdf)
	if k >= n {
		return r.SampleIntsAppend(dst, n, k)
	}
	base := len(dst)
	for len(dst)-base < k {
		rec := sort.SearchFloat64s(cdf, r.Float64())
		if rec >= n {
			rec = n - 1
		}
		if slices.Contains(dst[base:], rec) {
			continue
		}
		dst = append(dst, rec)
	}
	return dst
}

// GranulesOf maps record ids to the distinct granules holding them,
// preserving first-touch order.
func GranulesOf(l Layout, records []int) []int {
	return GranulesOfAppend(make([]int, 0, len(records)), l, records)
}

// GranulesOfAppend appends the distinct granules holding records to dst in
// first-touch order and returns the extended slice. Deduplication scans the
// appended prefix, which beats a map for per-request granule counts.
func GranulesOfAppend(dst []int, l Layout, records []int) []int {
	base := len(dst)
	for _, rec := range records {
		g := l.GranuleOf(rec)
		if !slices.Contains(dst[base:], g) {
			dst = append(dst, g)
		}
	}
	return dst
}

// Yao returns the expected number of distinct blocks accessed when k
// records are selected without replacement from n records packed m per
// block [YAO77]:
//
//	E = b * (1 - C(n-m, k) / C(n, k))
//
// where b = n/m blocks. Computed as a running product to stay in floating
// point for large n.
func Yao(n, m, k int) float64 {
	if k <= 0 || n <= 0 || m <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	b := float64(n) / float64(m)
	// prod = C(n-m, k)/C(n, k) = Π_{i=0}^{k-1} (n-m-i)/(n-i)
	prod := 1.0
	for i := 0; i < k; i++ {
		num := float64(n - m - i)
		if num <= 0 {
			prod = 0
			break
		}
		prod *= num / float64(n-i)
	}
	return b * (1 - prod)
}

// Store is one site's database state: per-block contents (a version
// counter standing in for data) used by the WAL tests and the recovery
// path. The simulator charges I/O through the disk package; Store tracks
// logical state only.
type Store struct {
	layout Layout
	blocks []uint64 // version per block
}

// NewStore creates a zeroed store with the layout.
func NewStore(l Layout) *Store {
	return &Store{layout: l, blocks: make([]uint64, l.Granules)}
}

// Layout returns the store's layout.
func (s *Store) Layout() Layout { return s.layout }

// ReadBlock returns the version of block g.
func (s *Store) ReadBlock(g int) uint64 { return s.blocks[g] }

// WriteBlock sets the version of block g.
func (s *Store) WriteBlock(g int, v uint64) { s.blocks[g] = v }

// Touch increments block g's version and returns the new value, modelling
// an in-place update.
func (s *Store) Touch(g int) uint64 {
	s.blocks[g]++
	return s.blocks[g]
}
