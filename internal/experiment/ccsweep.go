package experiment

import (
	"fmt"

	"carat/internal/storage"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// CCContention is one contention level of the concurrency-control sweep:
// a named record-access pattern driving the simulator's skew.
type CCContention struct {
	Name    string
	Pattern storage.Pattern
}

// DefaultCCContentions returns the sweep's three contention levels: the
// paper's uniform access, the classic 80/20 hotspot, and a YCSB-style
// Zipfian skew.
func DefaultCCContentions() []CCContention {
	return []CCContention{
		{Name: "uniform", Pattern: storage.Uniform{}},
		{Name: "hotspot-80/20", Pattern: storage.Hotspot{Hot: 0.2, Frac: 0.8}},
		{Name: "zipf-0.99", Pattern: storage.NewZipf(0.99)},
	}
}

// DefaultCCProtocols returns the three paradigms the lab compares: locking
// (2PL with distributed deadlock detection), deterministic queue-ordered
// execution (QueCC), and optimistic execution with backward validation.
func DefaultCCProtocols() []testbed.CCProtocol {
	return []testbed.CCProtocol{testbed.CC2PL, testbed.CCQueCC, testbed.CCOCC}
}

// CCSweepPoint is the measurement at one (protocol, contention, MPL) cell.
type CCSweepPoint struct {
	Protocol   string
	Contention string
	// Users is the closed multiprogramming level: the number of terminal
	// processes across both sites.
	Users int
	// CommittedTPS is system-wide committed transactions per second;
	// AbortRate is (submissions − commits) / submissions over the window.
	CommittedTPS float64
	AbortRate    float64
	// MeanResponseMS is the commit-weighted mean response time.
	MeanResponseMS float64
	// Paradigm-specific counters: deadlock victims (local + probe-detected)
	// and probe retransmission rounds exist only under locking; validation
	// aborts only under OCC; lock waits never occur under OCC.
	Deadlocks        int64
	ProbesResent     int64
	ValidationAborts int64
	LockWaits        int64
}

// CCSweepResult is the full three-way comparison grid.
type CCSweepResult struct {
	Protocols   []testbed.CCProtocol
	Contentions []string
	MPLs        []int
	// Points is protocol-major, then contention, then MPL — the same order
	// Table renders.
	Points []CCSweepPoint
}

// ccSweepWorkload builds one cell's workload: the MB4 user mix replicated
// m times per site (8m users total) on a deliberately small database, with
// the cell's access pattern and protocol. Simulation-only: the analytical
// model covers 2PL exclusively, so the sweep never calls Model.
func ccSweepWorkload(prot testbed.CCProtocol, pat storage.Pattern, m int) workload.Workload {
	wl := workload.MB4(8)
	base := wl.Users
	users := make([]testbed.UserSpec, 0, len(base)*m)
	for i := 0; i < m; i++ {
		users = append(users, base...)
	}
	wl.Name = fmt.Sprintf("CC-%s-x%d", prot, m)
	wl.Users = users
	wl.Layout = storage.Layout{Granules: 400, RecordsPerGran: 6}
	wl.Pattern = pat
	wl.Concurrency = prot
	return wl
}

// CCSweep runs the concurrency-control comparison lab: every protocol in
// protocols crossed with every contention level and every MPL multiplier
// (the MB4 mix replicated m times per site), measuring throughput, abort
// rate and the paradigm-specific abort/probe counters. The grid runs on
// runGrid, bit-identical for any worker count; every cell runs with
// opts.Seed itself, so cells differ only in their configuration.
// Replications are not used: one deterministic run per cell.
func CCSweep(protocols []testbed.CCProtocol, contentions []CCContention, mpls []int, opts SimOptions) (*CCSweepResult, error) {
	if len(protocols) == 0 || len(contentions) == 0 || len(mpls) == 0 {
		return nil, fmt.Errorf("experiment: cc sweep needs protocols, contentions and MPLs")
	}
	type cell struct {
		prot testbed.CCProtocol
		cont CCContention
		m    int
	}
	var cells []cell
	for _, p := range protocols {
		for _, c := range contentions {
			for _, m := range mpls {
				cells = append(cells, cell{prot: p, cont: c, m: m})
			}
		}
	}

	results, err := runGrid(len(cells), opts.Workers, opts.Progress, func(i int) (testbed.Results, error) {
		cl := cells[i]
		wl := ccSweepWorkload(cl.prot, cl.cont.Pattern, cl.m)
		return simulate(wl, opts.Seed, opts, fmt.Sprintf("%v/%s/x%d", cl.prot, cl.cont.Name, cl.m))
	})
	if err != nil {
		return nil, err
	}

	out := &CCSweepResult{Protocols: protocols, MPLs: mpls}
	for _, c := range contentions {
		out.Contentions = append(out.Contentions, c.Name)
	}
	for idx, cl := range cells {
		out.Points = append(out.Points, ccSweepPoint(cl.prot, cl.cont.Name, cl.m, results[idx]))
	}
	return out, nil
}

// ccSweepPoint aggregates one cell's run into the reported measurement.
func ccSweepPoint(prot testbed.CCProtocol, cont string, m int, res testbed.Results) CCSweepPoint {
	pt := CCSweepPoint{Protocol: prot.String(), Contention: cont, Users: 8 * m}
	subs, commits, resp := commitTotals(res)
	pt.MeanResponseMS = resp
	for _, nr := range res.Nodes {
		pt.Deadlocks += nr.LocalDeadlocks + nr.GlobalDeadlocks
		pt.ProbesResent += nr.ProbesResent
		pt.ValidationAborts += nr.ValidationAborts
		pt.LockWaits += nr.LockWaits
	}
	if res.Window > 0 {
		pt.CommittedTPS = float64(commits) / res.Window * 1000
	}
	if subs > 0 {
		pt.AbortRate = float64(subs-commits) / float64(subs)
	}
	return pt
}

// Point returns the cell for one (protocol, contention, users) triple.
func (r *CCSweepResult) Point(prot, cont string, users int) (CCSweepPoint, bool) {
	for _, p := range r.Points {
		if p.Protocol == prot && p.Contention == cont && p.Users == users {
			return p, true
		}
	}
	return CCSweepPoint{}, false
}

// Table renders the full grid as the comparison table EXPERIMENTS.md
// embeds: one row per cell, protocol-major.
func (r *CCSweepResult) Table() *Table {
	t := &Table{
		ID:    "CC sweep",
		Title: "Concurrency-control paradigms under contention (2PL vs QueCC vs OCC)",
		Header: []string{
			"Protocol", "Contention", "Users",
			"TPS", "Abort rate", "Mean resp (ms)",
			"Deadlocks", "Probes resent", "Validation aborts", "Lock waits",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Protocol, p.Contention, fmt.Sprintf("%d", p.Users),
			fmt.Sprintf("%.2f", p.CommittedTPS),
			fmt.Sprintf("%.3f", p.AbortRate),
			fmt.Sprintf("%.0f", p.MeanResponseMS),
			fmt.Sprintf("%d", p.Deadlocks),
			fmt.Sprintf("%d", p.ProbesResent),
			fmt.Sprintf("%d", p.ValidationAborts),
			fmt.Sprintf("%d", p.LockWaits),
		})
	}
	return t
}

// ThroughputFigure plots committed throughput against MPL at one
// contention level, one series per protocol.
func (r *CCSweepResult) ThroughputFigure(cont string) *Figure {
	f := &Figure{
		ID:     "CC sweep",
		Title:  fmt.Sprintf("Committed throughput vs. MPL (%s access)", cont),
		XLabel: "users (closed MPL, both sites)",
		YLabel: "committed txn/s (system-wide)",
	}
	for _, prot := range r.Protocols {
		s := Series{Name: prot.String()}
		for _, m := range r.MPLs {
			if p, ok := r.Point(prot.String(), cont, 8*m); ok {
				s.X = append(s.X, float64(p.Users))
				s.Y = append(s.Y, p.CommittedTPS)
			}
		}
		f.Series = append(f.Series, s)
	}
	return f
}
