// Package report formats experiment results as aligned text tables, CSV
// files, and quick ASCII plots, so the harness binaries can print the same
// rows/series the paper's figures show.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"bgpchurn/internal/obs"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i := 0; i < len(widths); i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, width := range widths {
		total += width + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

// WriteCSV writes the table (header + rows, no title) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		padded := row
		if len(row) < len(t.Columns) {
			padded = append(append([]string(nil), row...), make([]string, len(t.Columns)-len(row))...)
		}
		if err := cw.Write(padded); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Series is one named column of y-values for a figure.
type Series struct {
	Name   string
	Values []float64
}

// SeriesTable builds a table from an x column plus named y series, the
// shape of every figure in the paper.
func SeriesTable(title, xName string, xs []float64, series ...Series) *Table {
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, xName)
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	t := NewTable(title, cols...)
	for i, x := range xs {
		row := make([]string, 0, len(cols))
		row = append(row, Float(x, 0))
		for _, s := range series {
			if i < len(s.Values) {
				row = append(row, Float(s.Values[i], 3))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Float formats v with the given number of decimals, trimming trailing
// zeros beyond the first decimal for readability.
func Float(v float64, decimals int) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if decimals <= 0 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	s := strconv.FormatFloat(v, 'f', decimals, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimSuffix(s, ".")
	}
	return s
}

// FormatCellEvent renders one progress line for a grid cell event.
func FormatCellEvent(e obs.CellTiming) string {
	cell := fmt.Sprintf("%s n=%d", e.Scenario, e.N)
	switch e.State {
	case "start":
		return fmt.Sprintf("  run    %s", cell)
	case "done":
		return fmt.Sprintf("  done   %s  (%v)", cell, time.Duration(math.Round(e.ElapsedMS))*time.Millisecond)
	case "cached":
		return fmt.Sprintf("  cached %s", cell)
	case "failed":
		return fmt.Sprintf("  FAIL   %s: %v", cell, e.Err)
	case "resumed":
		return fmt.Sprintf("  resume %s  (from journal)", cell)
	case "retried":
		return fmt.Sprintf("  retry  %s  (attempt %d failed: %v)", cell, e.Attempt, e.Err)
	case "quarantined":
		return fmt.Sprintf("  QUAR   %s: %v", cell, e.Err)
	case "cancelled":
		return fmt.Sprintf("  cancel %s", cell)
	}
	return fmt.Sprintf("  %-6s %s", e.State, cell)
}

// plotMaxWidth caps the chart width; longer series are resampled.
const plotMaxWidth = 100

// AsciiPlot renders series as a crude terminal chart (one character column
// per x point, rows from max to min), good enough to eyeball trends in the
// harness output. Series longer than the chart width are downsampled.
func AsciiPlot(w io.Writer, height int, xs []float64, series ...Series) error {
	if height < 2 {
		height = 8
	}
	if len(xs) > plotMaxWidth {
		step := float64(len(xs)) / plotMaxWidth
		pick := func(vals []float64) []float64 {
			if len(vals) == 0 {
				return vals
			}
			out := make([]float64, 0, plotMaxWidth)
			for i := 0; i < plotMaxWidth; i++ {
				idx := int(float64(i) * step)
				if idx >= len(vals) {
					idx = len(vals) - 1
				}
				out = append(out, vals[idx])
			}
			return out
		}
		xs = pick(xs)
		resampled := make([]Series, len(series))
		for i, s := range series {
			resampled[i] = Series{Name: s.Name, Values: pick(s.Values)}
		}
		series = resampled
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		return fmt.Errorf("report: nothing to plot")
	}
	if hi == lo {
		hi = lo + 1
	}
	markers := "*+ox#@%&"
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(xs)))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i, v := range s.Values {
			if i >= len(xs) {
				break
			}
			r := int(math.Round((hi - v) / (hi - lo) * float64(height-1)))
			grid[r][i] = m
		}
	}
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = Float(hi, 2)
		case height - 1:
			label = Float(lo, 2)
		}
		if _, err := fmt.Fprintf(w, "%10s |%s|\n", label, string(line)); err != nil {
			return err
		}
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	_, err := fmt.Fprintf(w, "%10s  x: %s..%s  %s\n", "", Float(xs[0], 0), Float(xs[len(xs)-1], 0), strings.Join(legend, " "))
	return err
}
