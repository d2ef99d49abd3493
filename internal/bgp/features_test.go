package bgp

import (
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

func TestMRAIBatchFlushSendsAllPendingPrefixes(t *testing.T) {
	// O(2) originates prefix 1, then two more prefixes while A(1)'s timer
	// toward B(0) is running: both must be delivered in the SAME flush (one
	// timer expiry), not serialized one-per-MRAI.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, DefaultConfig(3))
	net.Originate(2, 1)
	net.Run() // prefix 1 delivered immediately; A's timer to B now runs
	first := net.Now()
	net.Originate(2, 2)
	net.Originate(2, 3)
	net.Run()
	elapsed := net.Now() - first
	// One MRAI wait (jittered 22.5–30 s) plus processing, not two.
	if elapsed > 35*des.Second {
		t.Fatalf("batched prefixes took %v, expected a single MRAI round", elapsed)
	}
	for f := Prefix(1); f <= 3; f++ {
		if !net.HasRoute(0, f) {
			t.Fatalf("prefix %d missing at B", f)
		}
	}
}

func TestRIBSizes(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil)
	net := MustNew(topo, fastConfig(1))
	if net.RIBSize(0) != 0 || net.AdjRIBInSize(0) != 0 {
		t.Fatal("non-empty RIB before any announcement")
	}
	net.Originate(3, 1)
	net.Originate(3, 2)
	net.Run()
	// T0 selects both prefixes and hears each from both M customers.
	if got := net.RIBSize(0); got != 2 {
		t.Fatalf("RIBSize(T0) = %d, want 2", got)
	}
	if got := net.AdjRIBInSize(0); got != 4 {
		t.Fatalf("AdjRIBInSize(T0) = %d, want 4 (2 prefixes x 2 customers)", got)
	}
	net.WithdrawPrefix(3, 1)
	net.Run()
	if got := net.RIBSize(0); got != 1 {
		t.Fatalf("RIBSize(T0) after withdraw = %d, want 1", got)
	}
}

func TestDampeningComposesWithWRATE(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	cfg := WRATEConfig(9)
	cfg.Dampening = DefaultDampening()
	net := MustNew(topo, cfg)
	net.Originate(2, 1)
	net.Run()
	net.Settle(60 * des.Second)
	// Flap hard; under WRATE each flap is also rate-limited, but the
	// penalties still accumulate at M1.
	for i := 0; i < 6; i++ {
		net.WithdrawPrefix(2, 1)
		net.RunUntil(net.Now() + 40*des.Second)
		net.Originate(2, 1)
		net.RunUntil(net.Now() + 40*des.Second)
	}
	if net.Suppressions(1) == 0 {
		t.Fatal("no suppression under WRATE+dampening")
	}
	if net.HasRoute(0, 1) {
		t.Fatal("flapping route not suppressed upstream")
	}
}

func TestDampeningComposesWithPerPrefixScope(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	cfg := fastConfig(11)
	cfg.Scope = PerPrefix
	cfg.Dampening = DefaultDampening()
	net := MustNew(topo, cfg)
	net.Originate(2, 1)
	net.Originate(2, 2)
	net.Run()
	// Flap prefix 1 only; prefix 2 must stay routable throughout.
	for i := 0; i < 4; i++ {
		net.WithdrawPrefix(2, 1)
		net.RunUntil(net.Now() + 10*des.Second)
		net.Originate(2, 1)
		net.RunUntil(net.Now() + 10*des.Second)
	}
	if net.HasRoute(0, 1) {
		t.Fatal("flapped prefix not suppressed")
	}
	if !net.HasRoute(0, 2) {
		t.Fatal("dampening leaked across prefixes")
	}
}

func TestLinkEventsDuringMRAIConvergence(t *testing.T) {
	// Fail a link while announcements are still rate-limit-queued; the
	// network must converge to a consistent state regardless.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil)
	net := MustNew(topo, WRATEConfig(13))
	net.Originate(3, 1)
	net.RunUntil(net.Now() + des.Second) // mid-convergence
	if err := net.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if err := net.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent after mid-convergence failure: %v", err)
	}
	if !net.HasRoute(0, 1) {
		t.Fatal("alternate path not used")
	}
	if got := net.NextHop(0, 1); got != 2 {
		t.Fatalf("T0 routes via %d, want surviving branch 2", got)
	}
	if err := net.RestoreLink(1, 3); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if err := net.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent after restore: %v", err)
	}
}

// TestSessionResetDropsInFlight fails a link while updates sent over it in
// both directions wait in every place a receiver holds them before
// processing: its in-flight delivery event (cur), its inbox and, on the
// windowed executor, the outbox the next window admits from. A reset session
// discards them (RFC 4271): none may be processed or counted, neither end may
// hold a route from the other afterwards, and the network must end
// consistent. PerPrefix scope lets each prefix go out at once instead of
// behind the first one's MRAI timer.
func TestSessionResetDropsInFlight(t *testing.T) {
	topo := topology.MustGenerate(baselineParams(300, 7))
	a := multihomedStubs(t, topo, 1)[0]
	b := topo.Nodes[a].Providers[0]
	for _, windowed := range []bool{false, true} {
		cfg := DefaultConfig(7)
		cfg.Scope, cfg.Check = PerPrefix, true
		workers := 0
		if windowed {
			cfg.LinkDelay, workers = 20*des.Millisecond, 2
		}
		net, err := newNetwork(topo, cfg, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		ja, jb, err := net.slots(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// parked counts the updates nd holds unprocessed from slot j, by place.
		parked := func(nd *node, j int) (cur, inbox, outbox int) {
			if nd.delivering && nd.cur.fromSlot == int32(j) {
				cur++
			}
			for _, m := range nd.inbox[nd.inboxHead:] {
				if m.fromSlot == int32(j) {
					inbox++
				}
			}
			for _, run := range net.outbox[net.parity] {
				for _, m := range run {
					if m.to == nd.id && m.fromSlot == int32(j) {
						outbox++
					}
				}
			}
			return cur, inbox, outbox
		}
		// Two prefixes each way: the first update becomes the receiver's
		// event, the second waits in its inbox.
		net.Originate(a, 1)
		net.Originate(a, 2)
		net.Originate(b, 3)
		net.Originate(b, 4)
		wantOutbox := 0
		if windowed {
			// A deadline short of every arrival admits the updates without
			// processing any; the next two stay in the outbox.
			net.RunUntil(net.Now() + cfg.LinkDelay/2)
			net.Originate(a, 5)
			net.Originate(b, 6)
			wantOutbox = 1
		}
		ends := []struct {
			nd   *node
			slot int
		}{{&net.nodes[a], ja}, {&net.nodes[b], jb}}
		for _, e := range ends {
			if cur, inbox, outbox := parked(e.nd, e.slot); cur != 1 || inbox != 1 || outbox != wantOutbox {
				t.Fatalf("windowed=%v: node %d parks cur=%d inbox=%d outbox=%d from its peer, want 1 1 %d",
					windowed, e.nd.id, cur, inbox, outbox, wantOutbox)
			}
		}
		if err := net.FailLink(a, b); err != nil {
			t.Fatal(err)
		}
		for _, e := range ends {
			if cur, inbox, outbox := parked(e.nd, e.slot); cur+inbox+outbox != 0 {
				t.Fatalf("windowed=%v: node %d still parks cur=%d inbox=%d outbox=%d from a reset session",
					windowed, e.nd.id, cur, inbox, outbox)
			}
		}
		if windowed {
			// Pending still counts exactly the messages left in the outbox.
			p := len(net.shards)
			for k, sh := range net.shards {
				inOutbox := 0
				for _, run := range net.outbox[net.parity][k*p : (k+1)*p] {
					inOutbox += len(run)
				}
				if sh.emitted != inOutbox {
					t.Fatalf("windowed: shard %d counts %d emitted messages, its outbox holds %d", k, sh.emitted, inOutbox)
				}
			}
		}
		net.Run()
		if err := net.CheckConsistency(); err != nil {
			t.Fatalf("windowed=%v: %v", windowed, err)
		}
		for _, e := range ends {
			if got := net.PerNeighborCounts(e.nd.id)[e.slot]; got != 0 {
				t.Fatalf("windowed=%v: node %d processed %d updates from a reset session", windowed, e.nd.id, got)
			}
			for f := Prefix(1); f <= 6; f++ {
				if ps, ok := e.nd.prefixes.Get(f); ok && net.rib(e.nd, ps)[e.slot].id != NoPath {
					t.Fatalf("windowed=%v: node %d holds prefix %d over a reset session", windowed, e.nd.id, f)
				}
			}
		}
	}
}

func TestPeerRoutePreferredOverProvider(t *testing.T) {
	// X(1, M) can reach origin via peer Z(2, M) or provider T(0); both
	// paths exist. Peer must win.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {2, 3}},
		[][2]topology.NodeID{{1, 2}})
	net := MustNew(topo, fastConfig(17))
	net.Originate(3, 1)
	net.Run()
	// X learns [2,3] from peer Z (customer route of Z, exported to peers)
	// and [0,2,3] from provider T.
	if got := net.NextHop(1, 1); got != 2 {
		t.Fatalf("X routes via %d, want peer 2 (path %v)", got, net.BestPath(1, 1))
	}
}

func TestWithdrawOnlyToNeighborsThatHeardRoute(t *testing.T) {
	// M1 learns a provider route; it exports to customer C3 but not to
	// peer M2. On withdrawal, M2 must receive nothing.
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 3}},
		[][2]topology.NodeID{{1, 2}})
	net := MustNew(topo, fastConfig(19))
	net.Originate(0, 1)
	net.Run()
	net.ResetCounters()
	net.WithdrawPrefix(0, 1)
	net.Run()
	if got := net.Counters(2).Received; got != 0 {
		t.Fatalf("peer M2 received %d updates for a route it never had", got)
	}
	if got := net.Counters(3).Received; got != 1 {
		t.Fatalf("customer C3 received %d updates, want 1 withdrawal", got)
	}
}
