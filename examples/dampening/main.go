// Route flap dampening (RFC 2439) — the churn-suppression mechanism the
// paper's conclusions name as future work, implemented here as an engine
// extension.
//
// A stub network's prefix flaps repeatedly (think a faulty session or a
// misbehaving router). Without dampening, every flap floods the whole
// hierarchy with updates. With dampening, the stub's providers accumulate a
// penalty per flap, suppress the route once the penalty crosses the
// threshold, and the rest of the Internet goes quiet until the route has
// been stable long enough to be reused.
//
//	go run ./examples/dampening
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
	topo, err := bgpchurn.Baseline.Generate(800, 13)
	if err != nil {
		return err
	}
	origin := topo.NodesOfType(bgpchurn.C)[3]
	tier1 := topo.NodesOfType(bgpchurn.T)[0]
	const flaps = 8

	flap := func(name string, proto bgpchurn.ProtocolConfig) error {
		net, err := bgpchurn.NewNetwork(topo, proto)
		if err != nil {
			return err
		}
		net.Originate(origin, 1)
		net.Run()
		net.ResetCounters()

		// A burst of flaps ~30 virtual seconds apart.
		for i := 0; i < flaps; i++ {
			net.WithdrawPrefix(origin, 1)
			net.RunUntil(net.Now() + 15_000_000_000)
			net.Originate(origin, 1)
			net.RunUntil(net.Now() + 15_000_000_000)
		}

		suppressions := 0
		for id := 0; id < topo.N(); id++ {
			suppressions += int(net.Suppressions(bgpchurn.NodeID(id)))
		}
		fmt.Fprintf(w, "%-22s network churn %6d updates; tier-1 AS%d saw %3d; %d suppression episodes; tier-1 has route: %v\n",
			name, net.TotalUpdates(), tier1, net.Counters(tier1).Received,
			suppressions, net.HasRoute(tier1, 1))
		return nil
	}

	fmt.Fprintf(w, "one stub (AS%d) flaps its prefix %d times in quick succession\n\n", origin, flaps)

	plain := bgpchurn.DefaultProtocol(13)
	if err := flap("no dampening", plain); err != nil {
		return err
	}

	damped := plain
	damped.Dampening = bgpchurn.DefaultDampening()
	if err := flap("RFC 2439 dampening", damped); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nDampening trades churn for availability: the flapping route is")
	fmt.Fprintln(w, "suppressed (tier-1 loses it entirely) until it stays stable for")
	fmt.Fprintln(w, "the penalty half-life — the classic RFD trade-off.")
	return nil
}
