package main

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"testing"
)

// TestTraceSenBeatsOLSOnBurstySeries checks the claim the example prints:
// on the burstiest ("savage") series, Sen's slope lands closer to the
// embedded slope than the least-squares fit.
func TestTraceSenBeatsOLSOnBurstySeries(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^savage\s+([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)$`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no savage row:\n%s", out.String())
	}
	var v [3]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(m[i+1], 64)
	}
	truth, ols, sen := v[0], v[1], v[2]
	if math.Abs(sen-truth) >= math.Abs(ols-truth) {
		t.Fatalf("savage: true %v, OLS %v, Sen %v; want Sen closer to the truth", truth, ols, sen)
	}
}
