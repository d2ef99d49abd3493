package bgp

import (
	"fmt"
	"testing"

	"bgpchurn/internal/topology"
)

// growTestParams returns a baseline-shaped parameter set at size n with a
// fixed tier-1 clique, so sizes are growth-compatible.
func growTestParams(n int, seed uint64) topology.Params {
	fn := float64(n)
	nT, nM, nCP := 5, int(0.15*fn), int(0.05*fn)
	return topology.Params{
		N: n, Regions: 5, Seed: seed,
		NT: nT, NM: nM, NCP: nCP, NC: n - nT - nM - nCP,
		DM: 2.5, DCP: 2, DC: 1.2, PM: 1, PCPM: 0.3, PCPCP: 0.1,
		TM: 0.375, TCP: 0.375, TC: 0.125,
		MaxTProvidersPerM: topology.Unlimited, MaxMProviders: topology.Unlimited,
		MSpread: 0.20, CPSpread: 0.05,
	}
}

// cEventFingerprint runs one full C-event cycle (initial propagation, DOWN,
// UP) for a prefix originated at the highest-ID stub and returns a string
// capturing every node's counters plus the network-wide aggregates.
func cEventFingerprint(net *Network) string {
	origin := topology.NodeID(net.Topology().N() - 1)
	net.Originate(origin, 1)
	net.Run()
	net.ResetCounters()
	net.WithdrawPrefix(origin, 1)
	net.Run()
	net.Originate(origin, 1)
	net.Run()
	s := fmt.Sprintf("total=%d peak=%d\n", net.TotalUpdates(), net.PeakUpdateRate())
	for i := 0; i < net.Topology().N(); i++ {
		id := topology.NodeID(i)
		s += fmt.Sprintf("%d: %v best=%v\n", i, net.Counters(id), net.BestPath(id, 1))
	}
	return s
}

// TestGrowThenResetEqualsFreshBuild pins the satellite contract that Grow
// and Reset share one reinitialization path: a network that has run a
// workload, grown to a larger topology and run again, then Reset, is
// observably identical to a network freshly built on the grown topology with
// the same seed, although the grown one carries its intern table — every
// path of the smaller topology, under PathIDs minted before the growth —
// across Grow and Reset.
//
// The two runs keep the names the test ledgers outside the repository know
// them by: compact=true is the one with the RIB invariant checker on.
func TestGrowThenResetEqualsFreshBuild(t *testing.T) {
	small := topology.MustGenerate(growTestParams(300, 51))
	big := topology.MustGrow(small, growTestParams(700, 52))

	for _, check := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", check), func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.Check = check

			grown := MustNew(small, cfg)
			cEventFingerprint(grown) // dirty the pre-growth state
			if err := grown.Grow(big, 42); err != nil {
				t.Fatal(err)
			}

			cfgFresh := cfg
			cfgFresh.Seed = 42
			fresh := MustNew(big, cfgFresh)

			if got, want := cEventFingerprint(grown), cEventFingerprint(fresh); got != want {
				t.Fatal("grown network diverges from fresh build on the same topology and seed")
			}

			// Reset after growth must land on the same state as a fresh
			// build with the reset seed.
			grown.Reset(7)
			cfgFresh.Seed = 7
			fresh2 := MustNew(big, cfgFresh)
			if got, want := cEventFingerprint(grown), cEventFingerprint(fresh2); got != want {
				t.Fatal("grow-then-reset diverges from fresh build")
			}
		})
	}
}

// TestGrowRejectsForeignTopology verifies Grow refuses topologies that are
// not grown versions of the current one.
func TestGrowRejectsForeignTopology(t *testing.T) {
	a := topology.MustGenerate(growTestParams(300, 61))
	b := topology.MustGenerate(growTestParams(200, 62))
	net := MustNew(a, DefaultConfig(1))
	if err := net.Grow(b, 1); err == nil {
		t.Fatal("Grow accepted a smaller topology")
	}
	c := topology.MustGenerate(growTestParams(400, 63))
	// c is larger but independently generated: its type layout differs from
	// a's at some pre-existing index with overwhelming probability.
	if err := net.Grow(c, 1); err == nil {
		t.Skip("independently generated topology happened to be type-compatible")
	}
}
