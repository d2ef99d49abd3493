package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestCompactTablesSmallWithBoundedStretch checks the claim the example
// prints: at every n the compact table is smaller than BGP's, and the mean
// stretch stays within compact routing's bound of 3.
func TestCompactTablesSmallWithBoundedStretch(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^\s+(\d+)\s+(\d+)\s+([0-9.]+)\s+[0-9.]+%\s+([0-9.]+)\s`)
	rows := re.FindAllStringSubmatch(out.String(), -1)
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3:\n%s", len(rows), out.String())
	}
	for _, m := range rows {
		bgpTable, _ := strconv.ParseFloat(m[2], 64)
		compact, _ := strconv.ParseFloat(m[3], 64)
		stretch, _ := strconv.ParseFloat(m[4], 64)
		if compact >= bgpTable {
			t.Errorf("n=%s: compact table %v not smaller than BGP's %v", m[1], compact, bgpTable)
		}
		if stretch > 3 {
			t.Errorf("n=%s: mean stretch %v exceeds 3", m[1], stretch)
		}
	}
}
