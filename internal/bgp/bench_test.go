package bgp

import (
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// Kernel micro-benchmarks for the simulation inner loop: decide, reconcile,
// the transmit → deliver → Fire cycle, and the MRAI flush machinery.
// These pin the zero-allocation property of the steady-state path (see
// DESIGN.md, kernel memory model); `make bench` runs them once each.

// benchTopo assembles the same hand-made topologies as build() in
// bgp_test.go without needing a *testing.T.
func benchTopo(types []topology.NodeType, transit, peers [][2]topology.NodeID) *topology.Topology {
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

// fanTopo is a T core with m M-nodes multihomed to it and one C origin
// multihomed to every M node: every M node offers the origin's prefix to
// the core, exercising multi-candidate decisions.
func fanTopo(m int) *topology.Topology { return fanTopoStubs(m, 1) }

// fanTopoStubs is fanTopo with the given number of C nodes under the M
// nodes, each multihomed to all of them; the last one is the origin.
func fanTopoStubs(m, stubs int) *topology.Topology {
	types := []topology.NodeType{topology.T}
	var transit [][2]topology.NodeID
	for i := 1; i <= m; i++ {
		types = append(types, topology.M)
		transit = append(transit, [2]topology.NodeID{0, topology.NodeID(i)})
	}
	for s := 1; s <= stubs; s++ {
		types = append(types, topology.C)
		for i := 1; i <= m; i++ {
			transit = append(transit, [2]topology.NodeID{topology.NodeID(i), topology.NodeID(m + s)})
		}
	}
	return benchTopo(types, transit, nil)
}

const benchPrefix Prefix = 1

// steadyNet returns a converged MRAI-0 network on fanTopo(8) with the
// origin's prefix propagated everywhere.
func steadyNet() (*Network, topology.NodeID) { return steadyNetOn(fanTopo(8)) }

func steadyNetOn(topo *topology.Topology) (*Network, topology.NodeID) {
	cfg := DefaultConfig(1)
	cfg.MRAI = 0
	net := MustNew(topo, cfg)
	origin := topology.NodeID(topo.N() - 1)
	net.Originate(origin, benchPrefix)
	net.Run()
	return net, origin
}

// coreLink returns the slot of node 1 (an M node) toward the T core and the
// path it currently advertises there, for re-announcement benchmarks.
func coreLink(net *Network) (m *node, slot int, path Path) { return linkTo(net, 0) }

// linkTo returns the slot of node 1 (an M node) toward its neighbor nbr and
// the path it currently advertises there.
func linkTo(net *Network, nbr topology.NodeID) (m *node, slot int, path Path) {
	m = &net.nodes[1]
	for j, id := range net.nbrIDs(m) {
		if id == nbr {
			id, ok := net.out(m)[j].wire(benchPrefix)
			if !ok {
				panic("bench setup: M node does not advertise the prefix to the neighbor")
			}
			return m, j, net.intern.path(id)
		}
	}
	panic("bench setup: M node is not connected to the neighbor")
}

// sinkNet is steadyNet with a second stub under the M nodes: a sink that
// hears the prefix from all of them and says nothing. Returns the M node, its
// slot toward the stub and the path it advertises there. Inside a run
// (inRun) deliver may complete that stub's updates at admission.
func sinkNet() (net *Network, m *node, slot int, path Path) {
	net, _ = steadyNetOn(fanTopoStubs(8, 2))
	m, slot, path = linkTo(net, 9)
	return net, m, slot, path
}

// inRun calls fn from inside net.RunUntil(deadline), as an event at the
// current time, so a test that drives transmit by hand sees deliver as a run
// shows it: RunUntil's own completion limit while fn runs, its horizon and
// clock fix-up afterwards. Inline networks only.
func inRun(net *Network, deadline des.Time, fn func()) {
	net.shards[0].sched.At(net.Now(), des.EventFunc(func(*des.Scheduler) { fn() }))
	net.RunUntil(deadline)
}

// BenchmarkKernelDecide measures the bare decision process over a RIB with
// 8 candidate routes. Expected allocs/op: 0.
func BenchmarkKernelDecide(b *testing.B) {
	net, _ := steadyNet()
	core := &net.nodes[0] // the T node hears the prefix from every M node
	ps, ok := core.prefixes.Get(benchPrefix)
	if !ok {
		b.Fatal("core has no state for the bench prefix")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, _ := net.decide(core, ps)
		if slot == noneSlot {
			b.Fatal("no route decided")
		}
	}
}

// BenchmarkKernelReconcileUnchanged measures applyDecision when the best
// route does not change — the dominant reconcile outcome during
// convergence. Expected allocs/op: 0.
func BenchmarkKernelReconcileUnchanged(b *testing.B) {
	net, _ := steadyNet()
	core := &net.nodes[0]
	ps, _ := core.prefixes.Get(benchPrefix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.applyDecision(core, benchPrefix, ps)
	}
}

// BenchmarkKernelReconcileWideRow measures a best-route change at a node
// with hundreds of neighbors: a T node of a warm-started TRANSIT-CLIQUE
// n=1500 network whose best route came from a peer. Each op processes one
// update on the best route's session, alternately its withdrawal (the row is
// rescanned, a longer or later-ranked peer route wins) and its return (the
// one-row step wins it back), so every op changes the best route and
// reconciles the whole row: the customers' queues replace or drop the
// update queued behind their running MRAI timers, while the peers' and
// providers' untouched queues are skipped unread. Expected allocs/op: 0.
func BenchmarkKernelReconcileWideRow(b *testing.B) {
	topo, err := scenario.TransitClique.Generate(1500, 1)
	if err != nil {
		b.Fatal(err)
	}
	net := MustNew(topo, DefaultConfig(1)) // 30 s MRAI: the clock stands still
	origin := topo.NodesOfType(topology.C)[0]
	net.WarmStart(origin, benchPrefix)
	var nd *node
	var ps *prefixState
	for _, id := range topo.NodesOfType(topology.T) {
		cand := &net.nodes[id]
		s, ok := cand.prefixes.Get(benchPrefix)
		if ok && s.bestSlot >= 0 && net.nbrRels(cand)[s.bestSlot] == topology.Peer && !cand.sink &&
			(nd == nil || cand.deg > nd.deg) {
			nd, ps = cand, s
		}
	}
	if nd == nil {
		b.Fatal("no T node with a peer-learned best route")
	}
	slot, id := ps.bestSlot, ps.bestID
	path := net.intern.path(id)
	flip := func(i int) {
		if i%2 == 0 {
			net.process(nd, net.Now(), slot, Withdraw, benchPrefix, nil, NoPath)
		} else {
			net.process(nd, net.Now(), slot, Announce, benchPrefix, path, id)
		}
	}
	for i := 0; i < 4; i++ { // first sends, timer starts, flush events armed
		flip(i)
	}
	changes := nd.bestChanges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flip(i)
	}
	b.StopTimer()
	if nd.bestChanges-changes != uint32(b.N) {
		b.Fatalf("%d best-route changes in %d ops", nd.bestChanges-changes, b.N)
	}
	b.ReportMetric(float64(nd.deg), "neighbors")
}

// BenchmarkKernelTransmitFire measures one full steady-state hop: transmit
// schedules the receiving node as its own delivery event, the scheduler
// pops it off the queue, and Fire re-runs the decision process to an unchanged best path.
// Expected allocs/op: 0.
func BenchmarkKernelTransmitFire(b *testing.B) {
	net, _ := steadyNet()
	m, slot, path := coreLink(net) // an M node re-announcing its path to the core
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.transmit(m, slot, benchPrefix, Announce, path, NoPath)
		net.shards[0].sched.Run()
	}
}

// BenchmarkKernelSinkDeliver measures the same hop into a stub: deliver
// completes the update at admission — decision included — and no event is
// scheduled, popped or fired. Expected allocs/op: 0.
func BenchmarkKernelSinkDeliver(b *testing.B) {
	net, m, slot, path := sinkNet()
	inRun(net, -1, func() {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.transmit(m, slot, benchPrefix, Announce, path, NoPath)
		}
		b.StopTimer()
		if net.Pending() != 0 {
			b.Fatal("the stub's updates were scheduled")
		}
	})
}

// BenchmarkKernelFlushLoop measures a C-event on a rate-limited network
// (30 s MRAI): queueing into pending, the queues' own flush events draining
// via the scratch buffer, and timer restarts.
func BenchmarkKernelFlushLoop(b *testing.B) {
	topo := fanTopo(8)
	net := MustNew(topo, DefaultConfig(1)) // default 30 s MRAI
	origin := topology.NodeID(topo.N() - 1)
	net.Originate(origin, benchPrefix)
	net.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.WithdrawPrefix(origin, benchPrefix)
		net.Run()
		net.Originate(origin, benchPrefix)
		net.Run()
		net.Settle(60 * des.Second)
	}
}

// BenchmarkKernelCEventReset measures the whole per-origin experiment cycle
// core.RunCEvents performs on a reused Network: Reset (recycling prefix
// state and queues), initial propagation, DOWN and UP phases.
func BenchmarkKernelCEventReset(b *testing.B) {
	topo := fanTopo(8)
	net := MustNew(topo, DefaultConfig(1))
	origin := topology.NodeID(topo.N() - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i) + 1)
		net.Originate(origin, benchPrefix)
		net.Run()
		net.ResetCounters()
		net.WithdrawPrefix(origin, benchPrefix)
		net.Run()
		net.Originate(origin, benchPrefix)
		net.Run()
	}
}

// TestSteadyStateZeroAlloc enforces the zero-allocation contract of the
// steady-state kernel path (transmit → deliver → Fire → reconcile with an
// unchanged best path) so a regression fails `go test`, not just a
// benchmark reading.
func TestSteadyStateZeroAlloc(t *testing.T) {
	net, _ := steadyNet()
	m, slot, path := coreLink(net)
	// Warm the queue storage.
	for i := 0; i < 16; i++ {
		net.transmit(m, slot, benchPrefix, Announce, path, NoPath)
		net.shards[0].sched.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		net.transmit(m, slot, benchPrefix, Announce, path, NoPath)
		net.shards[0].sched.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state transmit/fire allocates %.1f objects per update, want 0", allocs)
	}

	ps, _ := net.nodes[0].prefixes.Get(benchPrefix)
	allocs = testing.AllocsPerRun(200, func() {
		net.applyDecision(&net.nodes[0], benchPrefix, ps)
	})
	if allocs != 0 {
		t.Fatalf("unchanged-best applyDecision allocates %.1f objects, want 0", allocs)
	}

	// The hop into a silent sink, completed at admission. Its only growing
	// state is the per-second rate histogram: warm it past the virtual time
	// the measured updates reach (at most 100 ms each).
	net, m, slot, path = sinkNet()
	stub := &net.nodes[9]
	send := func() { net.transmit(m, slot, benchPrefix, Announce, path, NoPath) }
	inRun(net, -1, func() {
		for i := 0; i < 1024; i++ {
			send()
		}
	})
	net.ResetCounters()
	inRun(net, -1, func() {
		allocs = testing.AllocsPerRun(200, send)
		if net.Pending() != 0 || stub.recvAnnounce != 201 {
			t.Fatalf("sink hop: %d events pending, %d updates processed at the stub; want 0 and 201", net.Pending(), stub.recvAnnounce)
		}
	})
	if allocs != 0 {
		t.Fatalf("admission-time completion allocates %.1f objects per update, want 0", allocs)
	}

	// Spilled queues: a Reset-bounded C-event cycle over two prefixes under
	// the default 30 s MRAI. Withdrawals and re-announcements of both
	// prefixes queue behind running timers, so the flushes drain spilled
	// tables in prefix order — through the shard's scratch buffer, which
	// must end up holding two prefixes.
	topo := fanTopo(8)
	mnet := MustNew(topo, DefaultConfig(1))
	origin := topology.NodeID(topo.N() - 1)
	prefixes := [2]Prefix{benchPrefix, benchPrefix + 1}
	cycle := func() {
		mnet.Reset(1)
		for _, f := range prefixes {
			mnet.Originate(origin, f)
		}
		mnet.Run()
		for _, f := range prefixes {
			mnet.WithdrawPrefix(origin, f)
		}
		mnet.Run()
		for _, f := range prefixes {
			mnet.Originate(origin, f)
		}
		mnet.Run()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if n := cap(mnet.shards[0].scratch); n < len(prefixes) {
		t.Fatalf("no flush drained both prefixes (scratch capacity %d)", n)
	}
	if allocs = testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("two-prefix C-event cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocObs is TestSteadyStateZeroAlloc with
// instrumentation attached: enabled probes must preserve the kernel's
// zero-allocation steady state, not just disabled ones.
func TestSteadyStateZeroAllocObs(t *testing.T) {
	net, _ := steadyNet()
	net.SetObs(obs.New())
	m, slot, path := coreLink(net)
	for i := 0; i < 16; i++ {
		net.transmit(m, slot, benchPrefix, Announce, path, NoPath)
		net.shards[0].sched.Run()
	}
	before := net.shards[0].probes.AnnouncementsSent.Load()
	allocs := testing.AllocsPerRun(200, func() {
		net.transmit(m, slot, benchPrefix, Announce, path, NoPath)
		net.shards[0].sched.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state transmit/fire with obs enabled allocates %.1f objects per update, want 0", allocs)
	}
	if net.shards[0].probes.AnnouncementsSent.Load() <= before {
		t.Fatal("probes attached but announcement counter did not advance")
	}
}
