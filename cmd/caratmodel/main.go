// Command caratmodel solves the analytical queueing network model for one
// of the paper's workloads and prints the predicted performance.
//
// Usage:
//
//	caratmodel [-workload MB4] [-n 8] [-sweep] [-logdisk] [-buffer 0.0] [-think 0]
//
// With -sweep the transaction size runs over the paper's 4..20 grid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"carat"
	"carat/cmd/internal/shapeflag"
)

func main() {
	shape := shapeflag.Register(flag.CommandLine)
	var (
		breakdown = flag.Bool("breakdown", false, "print each type's per-cycle demand decomposition")
		asJSON    = flag.Bool("json", false, "emit predictions as JSON")
	)
	flag.Parse()

	for _, size := range shape.Sizes() {
		wl, err := shape.Workload(size)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pred, err := carat.SolveModel(wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Workload string
				N        int
				*carat.Prediction
			}{wl.Name(), size, pred}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Printf("%s  n=%d  (converged=%v in %d iterations)\n", wl.Name(), size, pred.Converged, pred.Iterations)
		for i, node := range pred.Nodes {
			fmt.Printf("  Node %c: TR-XPUT %.3f txn/s  records %.1f/s  CPU %.3f  DIO %.1f/s  disk util %.3f\n",
				'A'+i, node.TxnPerSec, node.RecordsPerSec, node.CPUUtilization,
				node.DiskIOPerSec, node.DiskUtilization)
			for _, ty := range []carat.TxnType{carat.LocalReadOnly, carat.LocalUpdate, carat.DistributedRead, carat.DistributedUpdate} {
				if x, ok := node.TxnPerSecByType[ty]; ok {
					fmt.Printf("    %-4s X=%.3f/s  R=%.0f ms  Pa=%.4f\n",
						ty, x, node.MeanResponseMS[ty], pred.AbortProbability[i][ty])
					if *breakdown {
						if d, ok := pred.Demands[i][ty]; ok {
							fmt.Printf("         demand/cycle ms: cpu=%.0f disk=%.0f lockwait=%.0f remotewait=%.0f commitwait=%.0f\n",
								d.CPUMS, d.DiskMS, d.LockWaitMS, d.RemoteWaitMS, d.CommitWaitMS)
						}
					}
				}
			}
		}
		fmt.Println()
	}
}
