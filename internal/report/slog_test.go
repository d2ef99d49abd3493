package report

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func sampleCellEvents() []CellEvent {
	return []CellEvent{
		{Scenario: "Baseline", N: 1000, Seed: 1001, State: "start"},
		{Scenario: "Baseline", N: 1000, Seed: 1001, State: "done", Elapsed: 1503 * time.Millisecond},
		{Scenario: "Baseline", N: 2000, Seed: 2001, State: "cached"},
		{Scenario: "Tree", N: 1000, Seed: 1001, State: "failed", Err: errors.New("boom")},
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
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if rec["scenario"] != "Baseline" || rec["n"] != float64(1000) || rec["seed"] != float64(1001) ||
		rec["state"] != "done" || rec["level"] != "INFO" {
		t.Errorf("unexpected JSON record: %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[3]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["level"] != "ERROR" || rec["err"] != "boom" {
		t.Errorf("failed cell should log at ERROR with err attr: %v", rec)
	}
}

func TestNewCellLoggerUnknownFormat(t *testing.T) {
	if _, err := NewCellLogger(&strings.Builder{}, "xml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}
