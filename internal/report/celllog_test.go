package report

import (
	"encoding/json"
	"strings"
	"testing"

	"bgpchurn/internal/obs"
)

func sampleCellEvents() []obs.CellTiming {
	return []obs.CellTiming{
		{Scenario: "Baseline", N: 1000, Seed: 1001, State: "start"},
		{Scenario: "Baseline", N: 1000, Seed: 1001, State: "done", Attempt: 1, ElapsedMS: 1503},
		{Scenario: "Baseline", N: 2000, Seed: 2001, State: "cached"},
		{Scenario: "Tree", N: 1000, Seed: 1001, State: "failed", Attempt: 1, Err: "boom"},
	}
}

func TestNewCellLoggerTextMatchesLegacy(t *testing.T) {
	var got, want strings.Builder
	logCell, err := NewCellLogger(&got, "text")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleCellEvents() {
		logCell(e)
		want.WriteString(FormatCellEvent(e) + "\n")
	}
	if got.String() != want.String() {
		t.Errorf("text format drifted from FormatCellEvent\n--- got ---\n%s--- want ---\n%s", got.String(), want.String())
	}
}

func TestCellLoggerDefaultIsText(t *testing.T) {
	var got strings.Builder
	logCell, err := NewCellLogger(&got, "")
	if err != nil {
		t.Fatal(err)
	}
	logCell(sampleCellEvents()[1])
	want := FormatCellEvent(sampleCellEvents()[1]) + "\n"
	if got.String() != want {
		t.Errorf("default cell logger output = %q, want %q", got.String(), want)
	}
}

// TestNewCellLoggerJSON holds -log-format json to the record: each line is
// the event's record marshalled, and nothing else.
func TestNewCellLoggerJSON(t *testing.T) {
	var buf strings.Builder
	logCell, err := NewCellLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleCellEvents() {
		logCell(e)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sampleCellEvents()) {
		t.Fatalf("got %d JSON lines, want %d", len(lines), len(sampleCellEvents()))
	}
	for i, e := range sampleCellEvents() {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if lines[i] != string(want) {
			t.Errorf("line %d = %s, want %s", i+1, lines[i], want)
		}
	}
	if want := `{"scenario":"Baseline","n":1000,"seed":1001,"state":"done","attempt":1,"elapsed_ms":1503}`; lines[1] != want {
		t.Errorf("done line = %s, want %s", lines[1], want)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["state"] != "failed" || rec["err"] != "boom" {
		t.Errorf("failed cell should carry its err: %v", rec)
	}
	var start map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &start); err != nil {
		t.Fatal(err)
	}
	if _, ok := start["attempt"]; ok {
		t.Errorf("start line carries an attempt: %s", lines[0])
	}
}

func TestNewCellLoggerUnknownFormat(t *testing.T) {
	if _, err := NewCellLogger(&strings.Builder{}, "xml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}
