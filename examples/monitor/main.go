// Virtual RIS monitor: drive the simulator with a continuous stream of
// routing events (prefix flaps at stubs, transit-link flaps) and record
// the update feed at a tier-1 monitor AS — the simulated counterpart of
// the RIPE RIS monitor behind the paper's Fig. 1.
//
// Where examples/trace synthesizes a monitor series statistically, this
// example produces one mechanistically: burstiness emerges from event
// overlap, MRAI batching and path exploration.
//
//	go run ./examples/monitor
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
	topo, err := bgpchurn.Baseline.Generate(600, 21)
	if err != nil {
		return err
	}

	cfg := bgpchurn.DefaultWorkload(21)
	cfg.Prefixes = 30
	cfg.PrefixFlapsPerHour = 8
	cfg.LinkFlapsPerHour = 3

	fmt.Fprintf(w, "simulating 24 virtual hours on a %d-AS Internet: %d prefixes,\n", topo.N(), cfg.Prefixes)
	fmt.Fprintf(w, "%.0f prefix flaps/h + %.0f link flaps/h, monitoring a tier-1 AS\n\n",
		cfg.PrefixFlapsPerHour, cfg.LinkFlapsPerHour)

	for _, mode := range []struct {
		name  string
		proto bgpchurn.ProtocolConfig
	}{
		{"NO-WRATE", bgpchurn.DefaultProtocol(21)},
		{"WRATE", bgpchurn.WRATEProtocol(21)},
	} {
		tl, err := bgpchurn.RunWorkload(topo, mode.proto, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-9s monitor AS%d logged per hour:", mode.name, tl.Monitor)
		for _, v := range tl.Updates {
			fmt.Fprintf(w, " %4.0f", v)
		}
		fmt.Fprintf(w, "\n          events=%d  network total=%d  busiest-second=%d  bucket peak/mean=%.1fx\n\n",
			tl.Events, tl.TotalUpdates, tl.PeakRate, tl.PeakToMean())
	}

	fmt.Fprintln(w, "The same event schedule generates substantially more updates network-")
	fmt.Fprintln(w, "wide under WRATE, while the tier-1 monitor's own feed barely moves —")
	fmt.Fprintln(w, "matching Fig. 12's finding that the WRATE penalty concentrates at the")
	fmt.Fprintln(w, "periphery. Bucket peaks well above the mean echo the burstiness that")
	fmt.Fprintln(w, "motivates the paper's concern about router update load.")
	return nil
}
