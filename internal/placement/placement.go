// Package placement is the data-directory subsystem: it maps a global
// granule space onto N home sites through pluggable placement strategies.
// The 1987 testbed hard-wired its data directory for two sites (every
// distributed user named its remote partners by hand in UserSpec.Remotes);
// growing the simulator to 16/64/128 sites needs the directory the paper's
// Section 2 sketches — a mapping from granule to home site that every
// transaction consults to resolve where a request executes.
//
// Three strategies are registered:
//
//   - hash: granule g lives at site g mod N — uniform striping, so a
//     skewed access head is spread evenly across the fleet;
//   - range: the granule space is cut into N contiguous shards — a skewed
//     head concentrates on the low shards' sites;
//   - locality: contiguous shards like range, but the workload layer adds
//     an affinity draw so a configurable fraction of every transaction's
//     accesses stay in the submitting site's own shard and only the rest
//     scatter through the directory.
//
// Parsing is strict, mirroring cc.Parse: unknown names fail with an error
// listing the valid strategies.
package placement

import (
	"fmt"
	"strings"
)

// Strategy enumerates the registered placement strategies.
type Strategy int

const (
	// Hash stripes granules uniformly: granule g homes at site g mod N.
	Hash Strategy = iota
	// Range cuts the global granule space into N contiguous shards.
	Range
	// Locality is Range plus a workload-level affinity draw: each site
	// owns a contiguous shard, and an affinity fraction of every
	// transaction's accesses stay in the submitting site's shard.
	Locality

	numStrategies
)

// String names the strategy as Parse accepts it.
func (s Strategy) String() string {
	switch s {
	case Hash:
		return "hash"
	case Range:
		return "range"
	case Locality:
		return "locality"
	default:
		return fmt.Sprintf("placement(%d)", int(s))
	}
}

// Valid reports whether s names a registered strategy.
func (s Strategy) Valid() bool { return s >= 0 && s < numStrategies }

// Names lists the canonical strategy names, for error messages and CLI
// help.
func Names() []string {
	out := make([]string, numStrategies)
	for s := Strategy(0); s < numStrategies; s++ {
		out[s] = s.String()
	}
	return out
}

// Info describes one registered strategy for CLI help and docs.
type Info struct {
	Name    string
	Summary string
}

// Registry lists every registered strategy with a one-line summary, in
// Strategy order.
func Registry() []Info {
	return []Info{
		{Name: Hash.String(), Summary: "uniform striping: granule g homes at site g mod N"},
		{Name: Range.String(), Summary: "contiguous shards: the granule space is cut into N equal ranges"},
		{Name: Locality.String(), Summary: "contiguous shards plus an affinity draw keeping a configurable fraction of accesses in the home shard"},
	}
}

// Parse resolves a strategy name case-insensitively, accepting the
// canonical names plus common aliases. Unknown names return an error that
// lists the valid strategies.
func Parse(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "hash", "striped", "stripe":
		return Hash, nil
	case "range", "shard", "sharded":
		return Range, nil
	case "locality", "affinity", "local":
		return Locality, nil
	default:
		return 0, fmt.Errorf("placement: unknown strategy %q (valid strategies: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Directory is the data directory: the resolved granule→site mapping for
// one fleet. It is immutable and safe for concurrent readers.
type Directory struct {
	strategy Strategy
	sites    int
	perSite  int
}

// NewDirectory builds the directory for a fleet of sites, each owning
// granulesPerSite granules of the global space (sites × granulesPerSite
// granules total).
func NewDirectory(strategy Strategy, sites, granulesPerSite int) (Directory, error) {
	if !strategy.Valid() {
		return Directory{}, fmt.Errorf("placement: unknown strategy %d (valid strategies: %s)",
			int(strategy), strings.Join(Names(), ", "))
	}
	if sites < 2 {
		return Directory{}, fmt.Errorf("placement: directory needs at least 2 sites, got %d", sites)
	}
	if granulesPerSite < 1 {
		return Directory{}, fmt.Errorf("placement: directory needs at least 1 granule per site, got %d", granulesPerSite)
	}
	return Directory{strategy: strategy, sites: sites, perSite: granulesPerSite}, nil
}

// Strategy returns the directory's placement strategy.
func (d Directory) Strategy() Strategy { return d.strategy }

// Granules returns the size of the global granule space.
func (d Directory) Granules() int { return d.sites * d.perSite }

// Site resolves the home site of global granule g. Granules outside the
// global space wrap, so any non-negative granule id resolves.
func (d Directory) Site(g int) int {
	g %= d.Granules()
	if d.strategy == Hash {
		return g % d.sites
	}
	return g / d.perSite
}

// Local translates global granule g to its site-local granule id — the id
// the owning site's lock and disk layers address.
func (d Directory) Local(g int) int {
	g %= d.Granules()
	if d.strategy == Hash {
		return g / d.sites
	}
	return g % d.perSite
}
