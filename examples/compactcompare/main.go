// Compact routing vs BGP — the trade-off behind the paper's related-work
// pointer to Krioukov et al.: compact routing shrinks routing tables from
// Θ(n) to ~√(n log n) with stretch at most 3, but "performs poorly under
// dynamic conditions". This example quantifies both halves on the same
// generated Internet.
//
//	go run ./examples/compactcompare
package main

import (
	"fmt"
	"io"
	"log"
	"math"
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
	fmt.Fprintf(w, "%8s %14s %16s %12s %14s %22s\n",
		"n", "BGP table", "compact table", "ratio", "mean stretch", "landmark-failure hit")
	for _, n := range []int{500, 1000, 2000} {
		topo, err := bgpchurn.Baseline.Generate(n, uint64(n))
		if err != nil {
			return err
		}
		k := int(math.Ceil(math.Sqrt(float64(n) * math.Log(float64(n)))))
		scheme, err := bgpchurn.BuildCompactRouting(topo, k, uint64(n))
		if err != nil {
			return err
		}
		stretch := scheme.MeasureStretch([]int32{0, int32(n / 3), int32(n / 2), int32(n - 1)})
		entries, rehomed := scheme.LandmarkFailureImpact(scheme.Landmarks[0])
		fmt.Fprintf(w, "%8d %14d %16.1f %11.1f%% %14.3f %12d (+%d rehomed)\n",
			n, n, scheme.MeanTableSize(),
			100*scheme.MeanTableSize()/float64(n),
			stretch.Mean, entries, rehomed)
	}

	fmt.Fprintln(w, "\nCompact routing cuts tables to a few percent of BGP's with mean")
	fmt.Fprintln(w, "stretch close to 1 — but one landmark failure invalidates an entry")
	fmt.Fprintln(w, "at EVERY node in the network, where BGP repairs a typical stub event")
	fmt.Fprintln(w, "with a few updates per node (see examples/quickstart). Exactly the")
	fmt.Fprintln(w, "static-vs-dynamic trade-off the paper's related work describes.")
	return nil
}
