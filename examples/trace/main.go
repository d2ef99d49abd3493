// Monitor trend estimation (§1 of the paper): the workflow behind Fig. 1.
//
// Real BGP monitor feeds are extremely noisy — weekly cycles, heavy-tailed
// burst days from session resets and leaks — so a naive linear fit of daily
// update counts is easily dragged around by outliers. The paper instead
// estimates churn growth with the Mann-Kendall trend test and Sen's slope,
// both rank-based and robust.
//
// This example synthesizes a monitor series with a KNOWN embedded trend,
// then compares ordinary least squares against Mann-Kendall/Sen on
// progressively burstier versions of the same series.
//
//	go run ./examples/trace
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"bgpchurn"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "estimating churn growth on synthetic 3-year monitor feeds")
	fmt.Fprintln(w, "(embedded ground truth: +200% over the series)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %14s %14s %14s\n", "burstiness", "true slope", "OLS slope", "Sen slope")

	for _, burst := range []struct {
		name  string
		prob  float64
		sigma float64
	}{
		{"none", 0, 0},
		{"mild", 0.01, 0.3},
		{"paper-like", 0.02, 0.5},
		{"savage", 0.08, 1.2},
	} {
		p := bgpchurn.DefaultMonitorTrace(99)
		p.BurstProb = burst.prob
		p.BurstSigma = burst.sigma
		series, err := bgpchurn.GenerateMonitorTrace(p)
		if err != nil {
			return err
		}

		days := make([]float64, len(series))
		for i := range days {
			days[i] = float64(i)
		}
		ols, err := bgpchurn.LinearFit(days, series)
		if err != nil {
			return err
		}
		mk, err := bgpchurn.MannKendall(series)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %14.1f %14.1f %14.1f\n",
			burst.name, p.TrendSlope(), ols.Coeffs[1], mk.Slope)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Sen's slope stays near the truth as bursts grow; OLS inflates —")
	fmt.Fprintln(w, "which is why the paper reaches for Mann-Kendall on Fig. 1's data.")
	return nil
}
