// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 6): it runs the analytical model and the testbed
// simulator on the same workload description and lays the two side by
// side, exactly as the paper's model-vs-measurement comparison does.
//
//	Figures 5–7:  LB8 record throughput / CPU utilization / disk I/O (Node B)
//	Figures 8–10: MB4 record throughput / CPU utilization / disk I/O
//	Table 3:      MB8 per-node TR-XPUT, Total-CPU, Total-DIO
//	Table 4:      UB6 per-node TR-XPUT, Total-CPU, Total-DIO
//	Table 5:      MB4 per-type throughput per node
package experiment

import (
	"carat/internal/core"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// SimOptions controls the simulation ("measurement") side.
type SimOptions struct {
	Seed     uint64
	Warmup   float64 // ms of simulated warmup discarded
	Duration float64 // ms of simulated time including warmup

	// Replications is the number of independent simulation runs per sweep
	// point (0 or 1 means a single run). Replication 0 always runs with
	// Seed itself — so a single run is reproducible on its own — and
	// replication r > 0 runs with the derived seed RepSeed(Seed, n, r).
	// With more than one replication the figure and table builders report
	// across-replication means with 95% Student-t confidence half-widths
	// next to the model values.
	Replications int
	// Workers bounds the number of concurrent simulations in every sweep
	// (0 means GOMAXPROCS). Results are independent of Workers: every grid
	// cell has a fixed seed and a fixed output slot.
	Workers int
	// Progress, when non-nil, is called after each completed simulation
	// run with the completed and total run counts. Calls are serialized but
	// may come from worker goroutines.
	Progress func(done, total int)
}

// DefaultSimOptions simulates one hour of testbed time after a two-minute
// warmup — enough for tight estimates at the paper's transaction rates.
func DefaultSimOptions() SimOptions {
	return SimOptions{Seed: 1, Warmup: 120_000, Duration: 3_720_000}
}

// Comparison pairs the model's predictions with the simulator's
// measurements for one workload at one transaction size.
type Comparison struct {
	Workload string
	N        int
	Model    *core.Result
	Measured testbed.Results
}

// Run solves the model and runs the simulator once for one workload, with
// opts.Seed: a one-cell RunReplicated with Replications forced to 1.
func Run(wl workload.Workload, opts SimOptions) (*Comparison, error) {
	opts.Replications = 1
	rc, err := RunReplicated(wl, opts)
	if err != nil {
		return nil, err
	}
	return rc.First(), nil
}

// Metric extracts one scalar from a comparison for a given node, returning
// the (model, measured) pair.
type Metric struct {
	Name string
	Unit string
	Get  func(c *Comparison, node int) (model, measured float64)
}

// RecordThroughput is the normalized throughput of Figures 5 and 8, in
// database records per second.
var RecordThroughput = Metric{
	Name: "Record Throughput",
	Unit: "records/s",
	Get: func(c *Comparison, node int) (float64, float64) {
		return c.Model.Sites[node].RecordThroughput * 1000, c.Measured.Nodes[node].RecordThroughput
	},
}

// CPUUtilization is Total-CPU: the node's CPU busy fraction.
var CPUUtilization = Metric{
	Name: "CPU Utilization",
	Unit: "fraction",
	Get: func(c *Comparison, node int) (float64, float64) {
		return c.Model.Sites[node].CPUUtilization, c.Measured.Nodes[node].CPUUtilization
	},
}

// DiskIORate is Total-DIO: block I/Os per second including the log.
var DiskIORate = Metric{
	Name: "Disk I/O Rate",
	Unit: "blocks/s",
	Get: func(c *Comparison, node int) (float64, float64) {
		return c.Model.Sites[node].DiskIORate * 1000, c.Measured.Nodes[node].DiskIORate
	},
}

// TxnThroughput is TR-XPUT: committed transactions per second.
var TxnThroughput = Metric{
	Name: "Transaction Throughput",
	Unit: "txn/s",
	Get: func(c *Comparison, node int) (float64, float64) {
		return c.Model.Sites[node].TotalTxnThroughput * 1000, c.Measured.Nodes[node].TotalTxnThroughput
	},
}

// PaperNs is the transaction-size sweep used throughout the evaluation.
func PaperNs() []int { return []int{4, 8, 12, 16, 20} }

// modelPerType returns the model's per-type commit throughput (txn/s) at a
// node, keyed by the four workload kinds (coordinator chains carry the
// distributed types).
func modelPerType(c *Comparison, node int) map[string]float64 {
	s := c.Model.Sites[node]
	out := map[string]float64{}
	for ty, cr := range s.Chains {
		if ty.Slave() {
			continue
		}
		out[ty.WorkloadName()] = cr.Throughput * 1000
	}
	return out
}

// measuredPerType returns the simulator's per-type commit throughput
// (txn/s) at a node.
func measuredPerType(c *Comparison, node int) map[string]float64 {
	out := map[string]float64{}
	for _, k := range testbed.TxnKinds {
		out[k.String()] = c.Measured.Nodes[node].TxnThroughput[k]
	}
	return out
}
