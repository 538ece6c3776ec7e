// Package shapeflag declares the workload-shape flags that caratsim and
// caratmodel share — which paper workload, at which transaction sizes, on
// which resources — and builds the carat.Workload they describe.
package shapeflag

import (
	"flag"

	"carat"
)

// Shape holds the values of the shape flags.
type Shape struct {
	Name    string
	N       int
	Sweep   bool
	LogDisk bool
	Buffer  float64
	Think   float64
	DBSize  int
	Stripes int
	CPUs    int
}

// Register declares -workload, -n, -sweep, -logdisk, -buffer, -think,
// -dbsize, -stripes and -cpus on fs and returns the Shape they fill.
func Register(fs *flag.FlagSet) *Shape {
	s := &Shape{}
	fs.StringVar(&s.Name, "workload", "MB4", "workload: LB8, MB4, MB8 or UB6")
	fs.IntVar(&s.N, "n", 8, "transaction size (requests per transaction)")
	fs.BoolVar(&s.Sweep, "sweep", false, "sweep n over the paper's grid 4,8,12,16,20")
	fs.BoolVar(&s.LogDisk, "logdisk", false, "give each node a separate log disk")
	fs.Float64Var(&s.Buffer, "buffer", 0, "database buffer hit ratio in [0,1)")
	fs.Float64Var(&s.Think, "think", 0, "user think time in ms")
	fs.IntVar(&s.DBSize, "dbsize", 0, "database size in blocks per site (0 = paper's 3000)")
	fs.IntVar(&s.Stripes, "stripes", 1, "database disk stripes per site")
	fs.IntVar(&s.CPUs, "cpus", 1, "processors per node")
	return s
}

// Sizes returns the transaction sizes to run: -n, or the paper's grid
// under -sweep.
func (s *Shape) Sizes() []int {
	if s.Sweep {
		return []int{4, 8, 12, 16, 20}
	}
	return []int{s.N}
}

// Workload builds the named workload at transaction size n with the
// resource flags applied.
func (s *Shape) Workload(n int) (carat.Workload, error) {
	wl, err := carat.WorkloadByName(s.Name, n)
	if err != nil {
		return wl, err
	}
	return s.Apply(wl), nil
}

// Apply applies the resource flags (-logdisk, -buffer, -think, -dbsize,
// -stripes, -cpus) to wl; flags left at their defaults change nothing.
func (s *Shape) Apply(wl carat.Workload) carat.Workload {
	if s.LogDisk {
		wl = wl.WithSeparateLogDisks()
	}
	if s.Buffer > 0 {
		wl = wl.WithBufferHitRatio(s.Buffer)
	}
	if s.Think > 0 {
		wl = wl.WithThinkTime(s.Think)
	}
	if s.DBSize > 0 {
		wl = wl.WithDatabaseSize(s.DBSize)
	}
	if s.Stripes > 1 {
		wl = wl.WithStripedDatabase(s.Stripes)
	}
	if s.CPUs > 1 {
		wl = wl.WithCPUs(s.CPUs)
	}
	return wl
}
