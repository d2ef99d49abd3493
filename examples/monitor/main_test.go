package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestMonitorWRATEAddsChurn checks the claim the example prints: the same
// event schedule produces more updates network-wide under WRATE than under
// NO-WRATE.
func TestMonitorWRATEAddsChurn(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^(NO-WRATE|WRATE)\s+monitor[^\n]*\n\s+events=\d+\s+network total=(\d+)`)
	total := map[string]int{}
	for _, m := range re.FindAllStringSubmatch(out.String(), -1) {
		total[m[1]], _ = strconv.Atoi(m[2])
	}
	if len(total) != 2 {
		t.Fatalf("parsed %d modes, want 2:\n%s", len(total), out.String())
	}
	if total["WRATE"] <= total["NO-WRATE"] {
		t.Fatalf("network total WRATE %d, NO-WRATE %d; want WRATE larger", total["WRATE"], total["NO-WRATE"])
	}
}
