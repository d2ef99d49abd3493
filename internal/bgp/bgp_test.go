package bgp

import (
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// build assembles a hand-made topology from transit (provider, customer)
// and peer pairs. All nodes share one region; types are given per node.
func build(t *testing.T, types []topology.NodeType, transit, peers [][2]topology.NodeID) *topology.Topology {
	t.Helper()
	topo := &topology.Topology{NumRegions: 1, Nodes: make([]topology.Node, len(types))}
	for i, typ := range types {
		topo.Nodes[i] = topology.Node{ID: topology.NodeID(i), Type: typ, Regions: 1}
	}
	for _, e := range transit {
		p, c := e[0], e[1]
		topo.Nodes[p].Customers = append(topo.Nodes[p].Customers, c)
		topo.Nodes[c].Providers = append(topo.Nodes[c].Providers, p)
	}
	for _, e := range peers {
		a, b := e[0], e[1]
		topo.Nodes[a].Peers = append(topo.Nodes[a].Peers, b)
		topo.Nodes[b].Peers = append(topo.Nodes[b].Peers, a)
	}
	return topo
}

// fastConfig is DefaultConfig with rate limiting disabled, for tests that
// only care about routing logic.
func fastConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.MRAI = 0
	return c
}

func TestChainPropagation(t *testing.T) {
	// T0 <- M1 <- C2 (arrows point provider <- customer). C2 originates.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(2, 1)
	net.Run()
	for id := topology.NodeID(0); id < 3; id++ {
		if !net.HasRoute(id, 1) {
			t.Fatalf("node %d has no route", id)
		}
	}
	if got := net.BestPath(0, 1); !got.Equal(Path{0, 1, 2}) {
		t.Fatalf("BestPath(0) = %v", got)
	}
	if got := net.BestPath(1, 1); !got.Equal(Path{1, 2}) {
		t.Fatalf("BestPath(1) = %v", got)
	}
	if got := net.BestPath(2, 1); !got.Equal(Path{2}) {
		t.Fatalf("BestPath(2) = %v", got)
	}
	if net.NextHop(0, 1) != 1 || net.NextHop(1, 1) != 2 || net.NextHop(2, 1) != 2 {
		t.Fatal("next hops wrong")
	}
}

// TestNewRejectsAsymmetricAdjacency corrupts the lists of a valid chain so
// that some CSR slot finds no reverse slot — a link listed on one end only,
// a neighbor past the last node, a negative neighbor — and requires New to
// refuse the topology rather than build sessions without a far end.
func TestNewRejectsAsymmetricAdjacency(t *testing.T) {
	corruptions := map[string]func(nodes []topology.Node){
		"one-sided link":        func(nodes []topology.Node) { nodes[1].Customers = nil },
		"out-of-range neighbor": func(nodes []topology.Node) { nodes[2].Peers = []topology.NodeID{3} },
		"negative neighbor":     func(nodes []topology.Node) { nodes[0].Peers = []topology.NodeID{-1} },
	}
	for name, corrupt := range corruptions {
		topo := build(t,
			[]topology.NodeType{topology.T, topology.M, topology.C},
			[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
		corrupt(topo.Nodes)
		_, err := New(topo, fastConfig(1))
		if err == nil || err.Error() != "bgp: topology has an asymmetric adjacency" {
			t.Fatalf("%s: New returned %v", name, err)
		}
	}
}

func TestWithdrawPropagation(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(2, 1)
	net.Run()
	net.ResetCounters()
	net.WithdrawPrefix(2, 1)
	net.Run()
	for id := topology.NodeID(0); id < 3; id++ {
		if net.HasRoute(id, 1) {
			t.Fatalf("node %d still has a route after withdrawal", id)
		}
	}
	// Exactly one withdrawal received at M1 and one at T0.
	for _, id := range []topology.NodeID{0, 1} {
		c := net.Counters(id)
		if c.Received != 1 || c.Withdrawals != 1 {
			t.Fatalf("node %d counters = %+v, want exactly one withdrawal", id, c)
		}
	}
}

func TestStarCEventCounts(t *testing.T) {
	// T0 with customers C1, C2, C3; C-event at C1.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.C, topology.C, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {0, 3}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(1, 7)
	net.Run()
	net.ResetCounters()

	net.WithdrawPrefix(1, 7)
	net.Run()
	net.Originate(1, 7)
	net.Run()

	// The provider hears exactly one withdraw and one announce; so does
	// every other stub (via the provider). The origin hears nothing (its
	// own path never comes back thanks to loop suppression).
	for id, want := range map[topology.NodeID]uint64{0: 2, 1: 0, 2: 2, 3: 2} {
		if got := net.Counters(id).Received; got != want {
			t.Errorf("node %d received %d updates, want %d", id, got, want)
		}
	}
}

func TestNoValleyExport(t *testing.T) {
	// M0 -peer- M1 -peer- M2; C3 is customer of M0 and originates.
	// M1 learns the route from its peer M0 and must NOT export it to its
	// peer M2.
	topo := build(t,
		[]topology.NodeType{topology.M, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 3}},
		[][2]topology.NodeID{{0, 1}, {1, 2}})
	net := MustNew(topo, fastConfig(1))
	net.Originate(3, 1)
	net.Run()
	if !net.HasRoute(1, 1) {
		t.Fatal("M1 should learn the customer route of its peer")
	}
	if net.HasRoute(2, 1) {
		t.Fatalf("valley: M2 learned a peer route through M1: %v", net.BestPath(2, 1))
	}
}

func TestProviderRouteOnlyToCustomers(t *testing.T) {
	// T0 provider of M1; M1 peer of M2; M1 provider of C3. Origin at T0.
	// M1 learns from its provider T0: exports to customer C3, not to peer M2.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 3}},
		[][2]topology.NodeID{{1, 2}})
	net := MustNew(topo, fastConfig(1))
	net.Originate(0, 1)
	net.Run()
	if !net.HasRoute(3, 1) {
		t.Fatal("customer C3 should receive the provider route")
	}
	if net.HasRoute(2, 1) {
		t.Fatal("peer M2 must not receive a provider-learned route")
	}
}

func TestPreferCustomerOverShorterPeer(t *testing.T) {
	// X(0, type M) has customer Y(1, M) and peer Z(2, M).
	// Origin O(4, C) reaches X via Y in 3 hops and via Z in 2 hops:
	//   Y <- W(3, M) <- O  and  Z <- O.
	topo := build(t,
		[]topology.NodeType{topology.M, topology.M, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 3}, {3, 4}, {2, 4}},
		[][2]topology.NodeID{{0, 2}})
	net := MustNew(topo, fastConfig(1))
	net.Originate(4, 1)
	net.Run()
	if got := net.NextHop(0, 1); got != 1 {
		t.Fatalf("X chose %d, want customer route via 1 despite longer path (got path %v)", got, net.BestPath(0, 1))
	}
	if got := net.BestPath(0, 1); !got.Equal(Path{0, 1, 3, 4}) {
		t.Fatalf("X path = %v", got)
	}
}

func TestPreferShorterAmongSamePref(t *testing.T) {
	// X(0) has two customers offering the origin: direct (1 hop) and via a
	// middleman (2 hops).
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {1, 2}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(2, 1)
	net.Run()
	if got := net.BestPath(0, 1); !got.Equal(Path{0, 2}) {
		t.Fatalf("T0 path = %v, want direct customer route", got)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	// X(0) has two equal-length customer routes via 1 and 2 to origin 3.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil)
	first := topology.None
	for trial := 0; trial < 5; trial++ {
		net := MustNew(topo, fastConfig(99))
		net.Originate(3, 1)
		net.Run()
		hop := net.NextHop(0, 1)
		if hop != 1 && hop != 2 {
			t.Fatalf("unexpected next hop %d", hop)
		}
		if trial == 0 {
			first = hop
		} else if hop != first {
			t.Fatalf("tie-break not deterministic: %d then %d", first, hop)
		}
	}
}

func TestMultihomedFailover(t *testing.T) {
	// Origin C3 multihomed to M1 and M2, both customers of T0.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil)
	net := MustNew(topo, fastConfig(5))
	net.Originate(3, 1)
	net.Run()
	hop := net.NextHop(0, 1)
	var failed topology.NodeID = 1
	if hop == 2 {
		failed = 2
	}
	if err := net.FailLink(failed, 3); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !net.HasRoute(0, 1) {
		t.Fatal("T0 lost the route despite an alternate path")
	}
	other := topology.NodeID(3) - failed // 1<->2
	_ = other
	if got := net.NextHop(0, 1); got == failed {
		t.Fatalf("T0 still routes via failed branch %d", got)
	}
	if net.HasRoute(failed, 1) {
		// The failed M still reaches the origin via T0 (provider route).
		if got := net.NextHop(failed, 1); got != 0 {
			t.Fatalf("M%d should reroute via its provider, got %d", failed, got)
		}
	}
	if err := net.RestoreLink(failed, 3); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if got := net.NextHop(failed, 1); got != 3 {
		t.Fatalf("after restore, M%d should use its direct customer link, got %d", failed, got)
	}
}

func TestLinkFailureNoAlternate(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(2, 1)
	net.Run()
	if err := net.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if net.HasRoute(0, 1) || net.HasRoute(1, 1) {
		t.Fatal("route survived a partitioning link failure")
	}
	if !net.LinkDown(1, 2) {
		t.Fatal("LinkDown not reported")
	}
	if err := net.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !net.HasRoute(0, 1) || !net.HasRoute(1, 1) {
		t.Fatal("route did not come back after restore")
	}
	// Error paths.
	if err := net.FailLink(0, 2); err == nil {
		t.Fatal("failing a non-existent link succeeded")
	}
	if err := net.RestoreLink(1, 2); err == nil {
		t.Fatal("restoring an up link succeeded")
	}
}

func TestMRAIRateLimitsSecondAnnouncement(t *testing.T) {
	// O(2) originates two prefixes back to back; A(1) must delay the second
	// announcement to B(0) by the (jittered) MRAI.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, DefaultConfig(3))
	net.Originate(2, 1)
	net.Originate(2, 2)
	net.Run()
	// Prefix 2's announcement from A to B waited for A's per-interface
	// timer: total convergence beyond 0.75*30s.
	if got := net.Now(); got < 22*des.Second {
		t.Fatalf("converged at %v, expected MRAI delay >= 22.5s", got.Seconds())
	}
	if !net.HasRoute(0, 2) {
		t.Fatal("prefix 2 never arrived")
	}

	// Control: without MRAI the same sequence converges in well under a
	// second of virtual time.
	net2 := MustNew(topo, fastConfig(3))
	net2.Originate(2, 1)
	net2.Originate(2, 2)
	net2.Run()
	if got := net2.Now(); got > des.Second {
		t.Fatalf("MRAI=0 converged at %v, expected sub-second", got.Seconds())
	}
}

func TestPerPrefixMRAIDoesNotCoupleprefixes(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	cfg := DefaultConfig(3)
	cfg.Scope = PerPrefix
	net := MustNew(topo, cfg)
	net.Originate(2, 1)
	net.Originate(2, 2)
	net.Run()
	// Independent timers: both prefixes flow immediately.
	if got := net.Now(); got > des.Second {
		t.Fatalf("per-prefix MRAI delayed an independent prefix: %v", got.Seconds())
	}
}

func TestWithdrawBypassesMRAIUnderNoWrate(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)

	run := func(cfg Config) des.Time {
		net := MustNew(topo, cfg)
		net.Originate(2, 1)
		net.Run()
		// Note: timers are still running right after convergence; the
		// withdrawal follows immediately, which is exactly the regime where
		// WRATE and NO-WRATE differ.
		start := net.Now()
		net.WithdrawPrefix(2, 1)
		net.Run()
		return net.Now() - start
	}

	noWrate := run(DefaultConfig(7))
	wrate := run(WRATEConfig(7))
	if noWrate > des.Second {
		t.Fatalf("NO-WRATE withdrawal took %vs, expected immediate", noWrate.Seconds())
	}
	if wrate < 5*des.Second {
		t.Fatalf("WRATE withdrawal took %vs, expected MRAI-delayed", wrate.Seconds())
	}
}

func TestSettleLetsTimersExpire(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, WRATEConfig(7))
	net.Originate(2, 1)
	net.Run()
	net.Settle(60 * des.Second)
	start := net.Now()
	net.WithdrawPrefix(2, 1)
	net.Run()
	// With all timers idle, even WRATE sends the first withdrawal
	// immediately at every hop.
	if d := net.Now() - start; d > des.Second {
		t.Fatalf("withdrawal after settle took %vs", d.Seconds())
	}
}

func TestFlapCollapsesInQueue(t *testing.T) {
	// Rapid withdraw/announce at the origin while the first announcement's
	// timers still run: queued updates must be replaced, and the final
	// state must be consistent.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, WRATEConfig(11))
	net.Originate(2, 1)
	net.Run()
	for i := 0; i < 3; i++ {
		net.WithdrawPrefix(2, 1)
		net.Originate(2, 1)
	}
	net.Run()
	if !net.HasRoute(0, 1) || !net.BestPath(0, 1).Equal(Path{0, 1, 2}) {
		t.Fatalf("inconsistent state after flapping: %v", net.BestPath(0, 1))
	}
	// The flaps collapsed in the queues: T0 must have seen at most a few
	// updates, not 2 per flap.
	if got := net.Counters(0).Received; got > 4 {
		t.Fatalf("T0 received %d updates; queue replacement not working", got)
	}
}

func TestCountersAndReset(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(2, 1)
	net.Run()
	c := net.Counters(1)
	if c.Received != 1 || c.Announcements != 1 || c.Withdrawals != 0 {
		t.Fatalf("M1 counters after announce: %+v", c)
	}
	if c.Sent != 1 {
		t.Fatalf("M1 sent %d, want 1 (to T0 only; origin suppressed)", c.Sent)
	}
	if len(c.PerNeighbor) != 2 {
		t.Fatalf("M1 has %d neighbor slots", len(c.PerNeighbor))
	}
	if net.TotalUpdates() != 2 {
		t.Fatalf("network total = %d, want 2", net.TotalUpdates())
	}
	net.ResetCounters()
	if net.TotalUpdates() != 0 || net.Counters(1).Received != 0 {
		t.Fatal("ResetCounters left residue")
	}
	rels := net.NeighborRelations(1)
	if len(rels) != 2 {
		t.Fatalf("M1 relations = %v", rels)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MRAI = -1 },
		func(c *Config) { c.MaxProcessingDelay = 0 },
		func(c *Config) { c.JitterLo = 0 },
		func(c *Config) { c.JitterHi = 0.5 },
		func(c *Config) { c.JitterHi = 1.5 },
		func(c *Config) { c.Scope = 7 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if !WRATEConfig(1).RateLimitWithdrawals {
		t.Error("WRATEConfig does not rate-limit withdrawals")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{3, 2, 1}
	if !p.Contains(2) || p.Contains(9) {
		t.Fatal("Contains broken")
	}
	if p.Equal(Path{9, 2, 1}) || p.Equal(Path{3, 2}) || !p.Equal(Path{3, 2, 1}) {
		t.Fatal("Equal broken")
	}
	if got := p.Prepend(4); !got.Equal(Path{4, 3, 2, 1}) {
		t.Fatal("Prepend broken")
	}
	if p.String() != "3 2 1" {
		t.Fatalf("String = %q", p.String())
	}
	if PerInterface.String() != "per-interface" || PerPrefix.String() != "per-prefix" {
		t.Fatal("scope strings")
	}
}

func TestOriginateIdempotent(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.C},
		[][2]topology.NodeID{{0, 1}}, nil)
	net := MustNew(topo, fastConfig(1))
	net.Originate(1, 1)
	net.Originate(1, 1)
	net.Run()
	if got := net.Counters(0).Received; got != 1 {
		t.Fatalf("double Originate produced %d updates at T0", got)
	}
	net.WithdrawPrefix(1, 1)
	net.WithdrawPrefix(1, 1)
	net.Run()
	if got := net.Counters(0).Received; got != 2 {
		t.Fatalf("double Withdraw produced %d total updates at T0", got)
	}
	// Withdrawing a prefix that was never originated is a no-op.
	net.WithdrawPrefix(1, 99)
	net.Run()
}
