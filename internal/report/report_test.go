package report

import (
	"bytes"
	"strings"
	"testing"

	"bgpchurn/internal/obs"
)

func TestTableFprintAlignment(t *testing.T) {
	tb := NewTable("Demo", "n", "U(T)", "U(M)")
	tb.AddRow("1000", "4.5", "2.25")
	tb.AddRow("10000", "45.125", "8")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "n ") {
		t.Fatalf("header = %q", lines[1])
	}
	// Columns align: "U(T)" appears at the same offset in header and rows.
	off := strings.Index(lines[1], "U(T)")
	if off < 0 || strings.Index(lines[3], "4.5") != off {
		t.Fatalf("misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("1", "2")
	tb.AddRow("3") // short row padded
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestSeriesTable(t *testing.T) {
	tb := SeriesTable("Fig", "n", []float64{1000, 2000},
		Series{Name: "T", Values: []float64{4.5, 9.25}},
		Series{Name: "M", Values: []float64{2}},
	)
	if len(tb.Rows) != 2 || len(tb.Columns) != 3 {
		t.Fatalf("shape = %dx%d", len(tb.Rows), len(tb.Columns))
	}
	if tb.Rows[0][1] != "4.5" {
		t.Fatalf("cell = %q", tb.Rows[0][1])
	}
	if tb.Rows[1][2] != "" {
		t.Fatalf("missing value rendered as %q", tb.Rows[1][2])
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		dec  int
		want string
	}{
		{4.5, 3, "4.5"},
		{4.0, 3, "4"},
		{4.123456, 3, "4.123"},
		{1000, 0, "1000"},
	}
	for _, c := range cases {
		if got := Float(c.v, c.dec); got != c.want {
			t.Errorf("Float(%v,%d) = %q, want %q", c.v, c.dec, got, c.want)
		}
	}
}

func TestAsciiPlot(t *testing.T) {
	var buf bytes.Buffer
	err := AsciiPlot(&buf, 5, []float64{1, 2, 3, 4},
		Series{Name: "up", Values: []float64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "up") {
		t.Fatalf("plot missing content:\n%s", out)
	}
	if err := AsciiPlot(&buf, 5, nil); err == nil {
		t.Fatal("empty plot accepted")
	}
	// Constant series must not divide by zero.
	buf.Reset()
	if err := AsciiPlot(&buf, 4, []float64{1, 2}, Series{Name: "c", Values: []float64{5, 5}}); err != nil {
		t.Fatal(err)
	}
}

func TestAsciiPlotDownsamplesLongSeries(t *testing.T) {
	n := 1000
	xs := make([]float64, n)
	vals := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		vals[i] = float64(i % 7)
	}
	var buf bytes.Buffer
	if err := AsciiPlot(&buf, 5, xs, Series{Name: "s", Values: vals}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > plotMaxWidth+20 {
			t.Fatalf("plot line too wide (%d chars)", len(line))
		}
	}
}

func TestFormatCellEvent(t *testing.T) {
	cases := []struct {
		e    obs.CellTiming
		want string
	}{
		{obs.CellTiming{Scenario: "BASELINE", N: 1000, State: "start"}, "  run    BASELINE n=1000"},
		{obs.CellTiming{Scenario: "BASELINE", N: 1000, State: "done", ElapsedMS: 1500}, "  done   BASELINE n=1000  (1.5s)"},
		{obs.CellTiming{Scenario: "TREE", N: 200, State: "cached"}, "  cached TREE n=200"},
	}
	for _, c := range cases {
		if got := FormatCellEvent(c.e); got != c.want {
			t.Errorf("FormatCellEvent(%+v) = %q, want %q", c.e, got, c.want)
		}
	}
	failed := FormatCellEvent(obs.CellTiming{Scenario: "X", N: 5, State: "failed", Err: "boom"})
	if !strings.Contains(failed, "FAIL") || !strings.Contains(failed, "boom") {
		t.Errorf("failed event rendering: %q", failed)
	}
	odd := FormatCellEvent(obs.CellTiming{Scenario: "X", N: 5, State: "odd"})
	if !strings.Contains(odd, "odd") {
		t.Errorf("unknown state dropped: %q", odd)
	}
}

func TestCellLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewCellLogger(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	log(obs.CellTiming{Scenario: "BASELINE", N: 1000, State: "start"})
	log(obs.CellTiming{Scenario: "BASELINE", N: 1000, State: "cached"})
	out := buf.String()
	if strings.Count(out, "\n") != 2 || !strings.Contains(out, "cached BASELINE n=1000") {
		t.Fatalf("logger output:\n%s", out)
	}
}
