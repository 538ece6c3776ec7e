package experiment

import (
	"fmt"
	"math"
	"strings"

	"carat/internal/core"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// Series is one line of a figure: model or measured values over the
// transaction-size sweep. CI, when non-nil, holds the 95% confidence
// half-width around each Y value (replicated measured series only; nil for
// model series and single-run figures).
type Series struct {
	Name string
	X    []float64
	Y    []float64
	CI   []float64
}

// Figure reproduces one of the paper's figures as data plus an ASCII
// rendering.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// figureSweep builds a model-vs-simulation figure for one metric: one
// model and one simulation series per node, over the sweep. With
// opts.Replications > 1 the simulation series carries across-replication
// means with 95% confidence half-widths; a single run plots the run itself.
func figureSweep(id, title string, mk func(int) workload.Workload, nodes []int, metric Metric, ns []int, opts SimOptions) (*Figure, error) {
	rcs, err := SweepReplicated(mk, ns, opts)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "transaction size n (requests/transaction)",
		YLabel: metric.Name + " (" + metric.Unit + ")",
	}
	for _, node := range nodes {
		model := Series{Name: "Model"}
		meas := Series{Name: "Simulation"}
		if len(nodes) > 1 {
			model.Name = fmt.Sprintf("Model (Node %c)", 'A'+node)
			meas.Name = fmt.Sprintf("Simulation (Node %c)", 'A'+node)
		}
		for _, rc := range rcs {
			mo, est := rc.Estimate(metric, node)
			model.X = append(model.X, float64(rc.N))
			model.Y = append(model.Y, mo)
			meas.X = append(meas.X, float64(rc.N))
			meas.Y = append(meas.Y, est.Mean)
			if est.Reps > 1 {
				meas.CI = append(meas.CI, est.HalfWidth)
			}
		}
		f.Series = append(f.Series, model, meas)
	}
	return f, nil
}

// Figure5 is "LB8 Workload: Record Throughput (Node B)".
func Figure5(ns []int, opts SimOptions) (*Figure, error) {
	return figureSweep("Figure 5", "LB8 Workload: Record Throughput (Node B)",
		workload.LB8, []int{1}, RecordThroughput, ns, opts)
}

// Figure6 is "LB8 Workload: CPU Utilization (Node B)".
func Figure6(ns []int, opts SimOptions) (*Figure, error) {
	return figureSweep("Figure 6", "LB8 Workload: CPU Utilization (Node B)",
		workload.LB8, []int{1}, CPUUtilization, ns, opts)
}

// Figure7 is "LB8 Workload: Disk I/O Rate (Node B)".
func Figure7(ns []int, opts SimOptions) (*Figure, error) {
	return figureSweep("Figure 7", "LB8 Workload: Disk I/O Rate (Node B)",
		workload.LB8, []int{1}, DiskIORate, ns, opts)
}

// Figure8 is "MB4 Workload: Record Throughput".
func Figure8(ns []int, opts SimOptions) (*Figure, error) {
	return figureSweep("Figure 8", "MB4 Workload: Record Throughput",
		workload.MB4, []int{0, 1}, RecordThroughput, ns, opts)
}

// Figure9 is "MB4 Workload: CPU Utilization".
func Figure9(ns []int, opts SimOptions) (*Figure, error) {
	return figureSweep("Figure 9", "MB4 Workload: CPU Utilization",
		workload.MB4, []int{0, 1}, CPUUtilization, ns, opts)
}

// Figure10 is "MB4 Workload: Disk I/O Rate".
func Figure10(ns []int, opts SimOptions) (*Figure, error) {
	return figureSweep("Figure 10", "MB4 Workload: Disk I/O Rate",
		workload.MB4, []int{0, 1}, DiskIORate, ns, opts)
}

// FigureResponseTimes is an extension artifact beyond the paper's six
// figures: the mean LU response time R(t,i) — the model's most fundamental
// output (every delay submodel feeds it) — model vs simulation at Node A
// over the sweep. The paper validates throughput, CPU and DIO; response
// time follows from them through Little's law, and this figure shows the
// agreement directly.
func FigureResponseTimes(ns []int, opts SimOptions) (*Figure, error) {
	metric := Metric{
		Name: "LU Response Time",
		Unit: "ms",
		Get: func(c *Comparison, node int) (float64, float64) {
			return c.Model.Sites[node].Chains[core.LU].ResponseTime,
				c.Measured.Nodes[node].MeanResponse[testbed.LU]
		},
	}
	return figureSweep("Extension Figure R", "MB8 Workload: LU Response Time (Node A)",
		workload.MB8, []int{0}, metric, ns, opts)
}

// ASCII renders the figure as an ASCII chart followed by the numeric
// series, suitable for a terminal.
func (f *Figure) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "y: %s   x: %s\n\n", f.YLabel, f.XLabel)
	b.WriteString(f.chart(64, 16))
	b.WriteString("\n")
	// Numeric table: one row per x, one column per series.
	fmt.Fprintf(&b, "%6s", "n")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %22s", s.Name)
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i, x := range f.Series[0].X {
			fmt.Fprintf(&b, "%6.0f", x)
			for _, s := range f.Series {
				fmt.Fprintf(&b, "  %22s", s.cell(i))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// cell formats point i as a value, with its ± confidence half-width when
// the series carries one.
func (s *Series) cell(i int) string {
	if s.CI != nil && !math.IsInf(s.CI[i], 1) {
		return fmt.Sprintf("%.3f ±%.3f", s.Y[i], s.CI[i])
	}
	return fmt.Sprintf("%.3f", s.Y[i])
}

// Markdown formats the figure's data as a GitHub-flavored Markdown table
// (one row per x value, one column per series).
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s: %s** (%s vs %s)\n\n", f.ID, f.Title, f.YLabel, f.XLabel)
	b.WriteString("| n |")
	for _, s := range f.Series {
		b.WriteString(" " + s.Name + " |")
	}
	b.WriteString("\n|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i, x := range f.Series[0].X {
			fmt.Fprintf(&b, "| %.0f |", x)
			for _, s := range f.Series {
				fmt.Fprintf(&b, " %s |", s.cell(i))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// chart draws all series on one ASCII grid.
func (f *Figure) chart(w, h int) string {
	var minX, maxX, maxY float64
	first := true
	for _, s := range f.Series {
		for i := range s.X {
			if first {
				minX, maxX = s.X[i], s.X[i]
				first = false
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if first || maxY == 0 {
		return "(no data)\n"
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	marks := []byte{'o', '*', '+', 'x', '#', '@'}
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			col := 0
			if maxX > minX {
				col = int(float64(w-1) * (s.X[i] - minX) / (maxX - minX))
			}
			row := h - 1 - int(float64(h-1)*s.Y[i]/maxY)
			if row < 0 {
				row = 0
			}
			if row >= h {
				row = h - 1
			}
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	for r, line := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%7.2f ", maxY)
		} else if r == h-1 {
			label = fmt.Sprintf("%7.2f ", 0.0)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "        +%s\n", strings.Repeat("-", w))
	fmt.Fprintf(&b, "        %-8.0f%*s\n", minX, w-4, fmt.Sprintf("%.0f", maxX))
	var legend []string
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c = %s", marks[si%len(marks)], s.Name))
	}
	fmt.Fprintf(&b, "        %s\n", strings.Join(legend, "   "))
	return b.String()
}
