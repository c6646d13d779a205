// Package bench is the paper-experiment suite: it builds the synthetic
// workloads, runs the experiments of EXPERIMENTS.md that reproduce the
// paper's claims (E1–E10) plus the counting ablations (E11, E14) and
// the multi-client table (E13), and renders each as a text table. The
// root-level benchmarks and cmd/tarmine both drive this package, so
// the numbers in documentation and the numbers a user reproduces come
// from the same code. Cache, maintenance, durability and streaming
// costs are measured by benchmark/ on the shipped binary, not here.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment result: a titled grid rendered as aligned
// text.
type Table struct {
	ID     string // e.g. "E1"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// ms formats a duration in milliseconds.
func ms(d float64) string { return fmt.Sprintf("%.1f", d) }
