// Quickstart: generate a small Internet-like AS topology, run one C-event
// (prefix withdrawal + re-announcement at a stub network), and look at who
// received how many BGP updates.
//
//	go run ./examples/quickstart
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
	// 1. Build a 1000-AS topology under the paper's Baseline growth model:
	//    ~5 tier-1 providers in a clique, 15% mid-level providers, 5%
	//    content providers, 80% customer stubs, five geographic regions.
	topo, err := bgpchurn.Baseline.Generate(1000, 42)
	if err != nil {
		return err
	}
	counts := topo.CountByType()
	fmt.Fprintf(w, "topology: %d ASes (%d tier-1, %d mid-level, %d content, %d customers)\n",
		topo.N(), counts[bgpchurn.T], counts[bgpchurn.M], counts[bgpchurn.CP], counts[bgpchurn.C])

	st := bgpchurn.ComputeTopologyStats(topo, 200)
	fmt.Fprintf(w, "structure: clustering %.3f, average path length %.2f hops\n\n",
		st.Clustering, st.AvgPathLength)

	// 2. Drive the BGP simulator directly: originate a prefix at one
	//    customer stub and watch it propagate.
	net, err := bgpchurn.NewNetwork(topo, bgpchurn.DefaultProtocol(42))
	if err != nil {
		return err
	}
	origin := topo.NodesOfType(bgpchurn.C)[0]
	net.Originate(origin, 1)
	net.Run()
	fmt.Fprintf(w, "prefix originated at AS%d; tier-1 AS0's path: %v\n",
		origin, net.BestPath(0, 1))
	fmt.Fprintf(w, "initial propagation took %.1f virtual seconds\n\n", net.Now().Seconds())

	// 3. Run the paper's experiment: average update counts per C-event over
	//    25 different stub originators.
	cfg := bgpchurn.DefaultExperiment(42)
	cfg.Origins = 25
	res, err := bgpchurn.RunCEvents(topo, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "updates received per C-event (mean over origins and nodes):")
	for _, typ := range []bgpchurn.NodeType{bgpchurn.T, bgpchurn.M, bgpchurn.CP, bgpchurn.C} {
		tr := res.ByType[typ]
		fmt.Fprintf(w, "  %-3v %7.2f  (±%.2f over origins)\n", typ, tr.U, tr.CI95)
	}
	fmt.Fprintf(w, "\nnodes at the top of the hierarchy see the most churn — the paper's Fig. 4.\n")
	return nil
}
