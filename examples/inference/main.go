// Relationship inference validation — why the paper built a generator
// instead of using inferred topologies.
//
// §3 of the paper rejects inferring historical AS topologies from routing
// tables because "such inference tends to underestimate the number of
// peering links". With a simulator that emits genuine policy-compliant AS
// paths AND the ground-truth topology they came from, that claim becomes
// measurable: run Gao-style relationship inference on the simulated paths
// and score it against the truth.
//
//	go run ./examples/inference
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
	topo, err := bgpchurn.Baseline.Generate(800, 5)
	if err != nil {
		return err
	}
	proto := bgpchurn.DefaultProtocol(5)
	proto.MRAI = 0 // converged snapshot; timers are irrelevant here
	net, err := bgpchurn.NewNetwork(topo, proto)
	if err != nil {
		return err
	}

	// A route collector's view: full feeds from every AS for k prefixes.
	cNodes := topo.NodesOfType(bgpchurn.C)
	const k = 25
	var prefixes []bgpchurn.Prefix
	for i := 0; i < k; i++ {
		f := bgpchurn.Prefix(i + 1)
		net.Originate(cNodes[i*len(cNodes)/k], f)
		prefixes = append(prefixes, f)
	}
	net.Run()

	paths := bgpchurn.CollectASPaths(net, prefixes)
	inf := bgpchurn.InferRelationships(paths, func(id bgpchurn.NodeID) int {
		return topo.Nodes[id].Degree()
	})
	acc := bgpchurn.EvaluateInference(inf, topo)

	transit, peering := topo.Edges()
	fmt.Fprintf(w, "ground truth: %d transit links, %d peering links\n", transit, peering)
	fmt.Fprintf(w, "collector view: %d AS paths over %d prefixes exposed %d of %d edges (%.0f%%)\n\n",
		len(paths), k, acc.ObservedEdges, acc.TrueEdges,
		100*float64(acc.ObservedEdges)/float64(acc.TrueEdges))

	fmt.Fprintf(w, "transit direction accuracy (observed links): %5.1f%%\n", 100*acc.TransitAccuracy())
	fmt.Fprintf(w, "peering recall among observed links:         %5.1f%%\n", 100*acc.PeerRecallObserved())
	fmt.Fprintf(w, "peering recall against ALL true peerings:    %5.1f%%\n", 100*acc.PeerRecallTotal())

	fmt.Fprintln(w, "\nTransit links are inferred almost perfectly, but the peering mesh is")
	fmt.Fprintln(w, "mostly invisible: peer routes only flow to customers, so a collector")
	fmt.Fprintln(w, "behind the wrong vantage points simply never sees them. This is the")
	fmt.Fprintln(w, "§3 argument for generating controllable topologies instead of using")
	fmt.Fprintln(w, "inferred ones.")
	return nil
}
