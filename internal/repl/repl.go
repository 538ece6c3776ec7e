// Package repl describes the testbed's data replication scheme: replica
// placement, the read policy, and the quorum arithmetic.
//
// CARAT itself runs fully partitioned data — every granule lives at exactly
// one site — so this package is a testbed extension beyond the paper's
// model. The scheme is primary-copy: granule g of site "owner" keeps its
// primary at the owner (writes lock and execute there exactly as in the
// unreplicated system) and Factor-1 additional copies at other sites,
// placed deterministically from a dedicated substream of the workload RNG.
// Writes propagate to the copies after the coordinator's force-written
// commit record (write-all-available: copies at crashed sites catch up
// during restart recovery); reads either go to the primary, failing over to
// the first live copy when the primary's site is down (ReadOne), or
// additionally consult a majority of copies (ReadQuorum).
package repl

import (
	"fmt"
	"strings"

	"carat/internal/rng"
)

// ReadMode selects how reads use the replica set.
type ReadMode int

const (
	// ReadOne serves each read at a single copy: the primary while its
	// site is up, otherwise the first live replica in placement order.
	ReadOne ReadMode = iota
	// ReadQuorum additionally consults copies until a majority of the
	// replica set (Factor/2 + 1 sites) has confirmed the read. Reads abort
	// when fewer than a quorum of copies are live.
	ReadQuorum
)

// String names the mode the way the CLI spells it.
func (m ReadMode) String() string {
	if m == ReadQuorum {
		return "quorum"
	}
	return "one"
}

// ParseReadMode parses the CLI spelling of a read mode.
func ParseReadMode(s string) (ReadMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "one", "read-one", "readone":
		return ReadOne, nil
	case "quorum", "read-quorum", "readquorum":
		return ReadQuorum, nil
	default:
		return ReadOne, fmt.Errorf("repl: unknown read mode %q (want one or quorum)", s)
	}
}

// Policy configures replication for one run. The zero value (and any
// Factor <= 1) is fully inert: no placement is built, no replica state is
// kept, and the simulation is byte-identical to an unreplicated build.
type Policy struct {
	// Factor is the replication factor R: the number of copies of each
	// granule, primary included. 0 and 1 both mean unreplicated.
	Factor int
	// Read selects the read policy (meaningful only when Factor > 1).
	Read ReadMode
}

// Active reports whether the policy replicates anything at all.
func (p Policy) Active() bool { return p.Factor > 1 }

// Validate checks the policy against the site count and normalizes a zero
// factor to 1 in place.
func (p *Policy) Validate(nodes int) error {
	if p.Factor < 0 {
		return fmt.Errorf("repl: negative replication factor %d", p.Factor)
	}
	if p.Factor == 0 {
		p.Factor = 1
	}
	if p.Factor > nodes {
		return fmt.Errorf("repl: replication factor %d exceeds %d sites", p.Factor, nodes)
	}
	if p.Read != ReadOne && p.Read != ReadQuorum {
		return fmt.Errorf("repl: unknown read mode %d", int(p.Read))
	}
	return nil
}

// QuorumSize returns the read quorum: a majority of the replica set.
func (p Policy) QuorumSize() int { return p.Factor/2 + 1 }

// Placement is the deterministic replica map of one run: for every
// (owner site, granule) pair, the ordered list of sites holding a copy,
// primary (the owner) first. It is a pure function of the RNG stream it was
// built from, so equal seeds give identical placements.
type Placement struct {
	nodes    int
	granules int
	factor   int
	// sites holds the replica lists back to back: the copies of granule g
	// of site o occupy sites[(o*granules+g)*factor : ...+factor].
	sites []int
}

// NewPlacement draws a placement for nodes sites of granules granules each
// at replication factor R from r. Each owner's granules draw from their own
// Split substream, so the placement of one site never depends on the node
// count ordering of another's draws.
func NewPlacement(nodes, granules, factor int, r *rng.Rand) *Placement {
	if factor < 1 {
		factor = 1
	}
	if factor > nodes {
		factor = nodes
	}
	p := &Placement{
		nodes:    nodes,
		granules: granules,
		factor:   factor,
		sites:    make([]int, nodes*granules*factor),
	}
	for owner := 0; owner < nodes; owner++ {
		or := r.Split(uint64(owner))
		for g := 0; g < granules; g++ {
			out := p.sites[(owner*granules+g)*factor:][:0]
			out = append(out, owner)
			if factor > 1 {
				// Sample factor-1 distinct sites from the nodes-1 non-owner
				// sites; index i maps to site i, skipping the owner.
				for _, i := range or.SampleInts(nodes-1, factor-1) {
					s := i
					if s >= owner {
						s++
					}
					out = append(out, s)
				}
			}
		}
	}
	return p
}

// Replicas returns the sites holding a copy of granule g of site owner,
// primary first. The returned slice aliases the placement; don't mutate it.
func (p *Placement) Replicas(owner, g int) []int {
	return p.sites[(owner*p.granules+g)*p.factor:][:p.factor:p.factor]
}

// HasReplica reports whether site holds a copy of granule g of site owner.
func (p *Placement) HasReplica(site, owner, g int) bool {
	for _, s := range p.Replicas(owner, g) {
		if s == site {
			return true
		}
	}
	return false
}
