package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestQuickstartChurnFollowsHierarchy checks the claim the example prints:
// tier-1 nodes see more updates per C-event than mid-level providers, and
// those more than customer stubs (the paper's Fig. 4 ordering).
func TestQuickstartChurnFollowsHierarchy(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	u := map[string]float64{}
	for _, m := range regexp.MustCompile(`(?m)^  (T|M|CP|C)\s+([0-9.]+)`).FindAllStringSubmatch(out.String(), -1) {
		u[m[1]], _ = strconv.ParseFloat(m[2], 64)
	}
	if len(u) != 4 {
		t.Fatalf("parsed U for %d node types, want 4:\n%s", len(u), out.String())
	}
	if !(u["T"] > u["M"] && u["M"] > u["C"]) {
		t.Fatalf("U(T)=%v U(M)=%v U(C)=%v, want U(T) > U(M) > U(C)", u["T"], u["M"], u["C"])
	}
}
