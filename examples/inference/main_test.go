package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestInferenceMissesPeerings checks the claim the example prints: transit
// directions are inferred well, while most true peerings stay invisible, so
// peering recall against all true peerings is below transit accuracy.
func TestInferenceMissesPeerings(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	pct := func(label string) float64 {
		m := regexp.MustCompile(regexp.QuoteMeta(label) + `:\s+([0-9.]+)%`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no %q line:\n%s", label, out.String())
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	transit := pct("transit direction accuracy (observed links)")
	recall := pct("peering recall against ALL true peerings")
	if recall >= transit {
		t.Fatalf("peering recall %v%% not below transit accuracy %v%%", recall, transit)
	}
}
