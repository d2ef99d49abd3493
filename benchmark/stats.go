package main

import (
	"math"
	"sort"

	"bgpchurn/internal/stats"
)

// quantile and median are internal/stats' type-7 quantile (0 for an empty
// sample), the same interpolation the experiment framework reports with.
func quantile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because the
// driver judges run-to-run spread with that function.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i is the quartile number, 1 or 3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder is the set of percentiles a timing may be reported at, each
// with the share of samples beyond it in per mille (integers, so the rule's
// arithmetic is exact).
var tailLadder = []struct {
	pct            float64
	beyondPerMille int
}{{50, 500}, {75, 250}, {85, 150}, {90, 100}, {95, 50}, {98, 20}, {99, 10}, {99.9, 1}}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile applies the choosing-metrics rule: the highest percentile
// of the ladder with at least ten samples beyond it. Below twenty samples no
// percentile qualifies and the median (50) is all a timing can support.
func tailPercentile(samples int) float64 {
	best := tailLadder[0].pct
	for _, l := range tailLadder {
		if samples*l.beyondPerMille >= minBeyond*1000 {
			best = l.pct
		}
	}
	return best
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
