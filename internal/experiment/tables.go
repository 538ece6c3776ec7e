package experiment

import (
	"fmt"
	"strings"

	"carat/internal/workload"
)

// Table reproduces one of the paper's tables.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Markdown formats the table as a GitHub-flavored Markdown table, for
// pasting regenerated results into EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s: %s**\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// comparisonTable builds the Table 3/4 layout: per (n, node) rows of
// measured and modeled TR-XPUT, Total-CPU and Total-DIO. With
// opts.Replications > 1 the measured columns are across-replication means
// and each gains a ± column (95% Student-t half-width).
func comparisonTable(id, title string, mk func(int) workload.Workload, ns []int, opts SimOptions) (*Table, error) {
	rcs, err := SweepReplicated(mk, ns, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Header: []string{"n", "Node"}}
	t.simColumns(max(opts.Replications, 1), "Sim TR-XPUT", "Sim Total-CPU", "Sim Total-DIO")
	t.Header = append(t.Header, "Model TR-XPUT", "Model Total-CPU", "Model Total-DIO")
	for _, rc := range rcs {
		for node := 0; node < 2; node++ {
			xm, xe := rc.Estimate(TxnThroughput, node)
			cm, ce := rc.Estimate(CPUUtilization, node)
			dm, de := rc.Estimate(DiskIORate, node)
			row := []string{fmt.Sprintf("%d", rc.N), string(rune('A' + node))}
			row = append(row, xe.cells("%.2f", "%.2f")...)
			row = append(row, ce.cells("%.2f", "%.3f")...)
			row = append(row, de.cells("%.1f", "%.1f")...)
			row = append(row, fmt.Sprintf("%.2f", xm), fmt.Sprintf("%.2f", cm), fmt.Sprintf("%.1f", dm))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// simColumns appends the simulated columns' headers, each followed by a ±
// column when reps > 1, and notes the replication count in the title.
func (t *Table) simColumns(reps int, names ...string) {
	if reps > 1 {
		t.Title = fmt.Sprintf("%s — %d replications, 95%% CI", t.Title, reps)
	}
	for _, name := range names {
		t.Header = append(t.Header, name)
		if reps > 1 {
			t.Header = append(t.Header, "±")
		}
	}
}

// cells formats the estimate as table cells: the mean, plus its half-width
// when more than one replication ran.
func (e Estimate) cells(meanFmt, halfFmt string) []string {
	if e.Reps > 1 {
		return []string{fmt.Sprintf(meanFmt, e.Mean), fmt.Sprintf(halfFmt, e.HalfWidth)}
	}
	return []string{fmt.Sprintf(meanFmt, e.Mean)}
}

// Table3 is "Model vs Measurement Results (MB8)".
func Table3(ns []int, opts SimOptions) (*Table, error) {
	return comparisonTable("Table 3", "Model vs Measurement Results (MB8)", workload.MB8, ns, opts)
}

// Table4 is "Model vs Measurement Results (UB6)".
func Table4(ns []int, opts SimOptions) (*Table, error) {
	return comparisonTable("Table 4", "Model vs Measurement Results (UB6)", workload.UB6, ns, opts)
}

// Table5 is "Model vs Measurement Throughput Results for Each TR Type
// (MB4)": per-type commit throughput at each node. With
// opts.Replications > 1 the simulated columns carry 95% CI half-widths.
func Table5(ns []int, opts SimOptions) (*Table, error) {
	rcs, err := SweepReplicated(workload.MB4, ns, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table 5",
		Title:  "Model vs Measurement Throughput Results for Each TR Type (MB4)",
		Header: []string{"n", "Type"},
	}
	t.simColumns(max(opts.Replications, 1), "Sim Node A", "Sim Node B")
	t.Header = append(t.Header, "Model Node A", "Model Node B")
	for _, rc := range rcs {
		for _, ty := range []string{"LRO", "LU", "DRO", "DU"} {
			row := []string{fmt.Sprintf("%d", rc.N), ty}
			for node := 0; node < 2; node++ {
				e := rc.estimate(func(c *Comparison) float64 { return measuredPerType(c, node)[ty] })
				row = append(row, e.cells("%.2f", "%.2f")...)
			}
			ma := modelPerType(rc.First(), 0)[ty]
			mb := modelPerType(rc.First(), 1)[ty]
			t.Rows = append(t.Rows, append(row, fmt.Sprintf("%.2f", ma), fmt.Sprintf("%.2f", mb)))
		}
	}
	return t, nil
}

// Table1 renders the phase transition probability matrix for given
// parameters — a direct view of the paper's Table 1 (useful for docs and
// debugging; the numeric validation lives in the phase package tests).
func Table1(l, r int, q, pb, pd, pra float64) (*Table, error) {
	f, err := transitionTable(l, r, q, pb, pd, pra)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Table2 renders the basic parameter values the defaults are built from.
func Table2() *Table {
	t := &Table{
		ID:     "Table 2",
		Title:  "Basic Parameter Values (milliseconds)",
		Header: []string{"Node", "Type", "R_U", "R_TM", "R_DM", "R_LR", "R_DMIO(cpu)", "R_DMIO(disk)"},
	}
	diskTimes := map[int]map[string]float64{
		0: {"LRO": 28, "LU": 84, "DRO": 28, "DU": 84},
		1: {"LRO": 40, "LU": 120, "DRO": 40, "DU": 120},
	}
	for node := 0; node < 2; node++ {
		for _, ty := range []string{"LRO", "LU", "DRO", "DU"} {
			tm, dm, io := 8.0, 5.4, 1.5
			if ty == "DRO" || ty == "DU" {
				tm = 12.0
			}
			if ty == "LU" || ty == "DU" {
				dm, io = 8.6, 2.5
			}
			t.Rows = append(t.Rows, []string{
				string(rune('A' + node)), ty,
				"7.8", fmt.Sprintf("%.1f", tm), fmt.Sprintf("%.1f", dm),
				"2.2", fmt.Sprintf("%.1f", io),
				fmt.Sprintf("%.1f", diskTimes[node][ty]),
			})
		}
	}
	return t
}
