package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestDampeningCutsChurn checks the claim the example prints: with RFC 2439
// dampening the flapping prefix causes less network churn, because routes
// are actually suppressed.
func TestDampeningCutsChurn(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^(no dampening|RFC 2439 dampening)\s+network churn\s+(\d+) updates;.*; (\d+) suppression episodes`)
	churn, suppressed := map[string]int{}, map[string]int{}
	for _, m := range re.FindAllStringSubmatch(out.String(), -1) {
		churn[m[1]], _ = strconv.Atoi(m[2])
		suppressed[m[1]], _ = strconv.Atoi(m[3])
	}
	if len(churn) != 2 {
		t.Fatalf("parsed %d runs, want 2:\n%s", len(churn), out.String())
	}
	if churn["RFC 2439 dampening"] >= churn["no dampening"] {
		t.Fatalf("churn with dampening %d, without %d; want less with", churn["RFC 2439 dampening"], churn["no dampening"])
	}
	if suppressed["RFC 2439 dampening"] == 0 {
		t.Fatal("dampening run reports no suppression episodes")
	}
}
