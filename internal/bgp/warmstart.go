package bgp

import "bgpchurn/internal/topology"

// This file implements warm-start convergence: computing the stable routing
// state for a single originated prefix directly from the topology, without
// running the discrete-event initial-propagation flood.
//
// Soundness. Under the engine's policy model — valley-free export, strict
// prefer-customer local preference, shortest AS path, deterministic tieHash
// tie-break — and the topology invariants (acyclic provider hierarchy, no
// peering inside the own customer tree), the converged state is the unique
// fixpoint of the per-node decision process and is independent of message
// timing, processing delays and MRAI jitter (Gao–Rexford safety). It can
// therefore be computed statically in three stages that mirror how routes
// are allowed to flow:
//
//	A. customer routes climb the provider DAG from the origin, breadth-first
//	   by advertisement path length (a node's best customer route is its
//	   shortest one, so BFS level order finalizes each node exactly once);
//	B. peer routes make a single hop: a node with no customer route takes
//	   the best route among peers that are customer- or self-routed (peer
//	   and provider routes are never exported to peers, so peer routes do
//	   not cascade);
//	C. provider routes cascade down the hierarchy in provider-DAG
//	   topological order: a node with neither customer nor peer route takes
//	   the best among its providers' advertisements, each already final.
//
// Every stage applies the engine's exact export predicate (including
// sender-side loop suppression, node.exportable) and the exact decision
// comparison (node.decide restricted to one preference class). The computed
// advertisements are then installed into Adj-RIB-Out/Adj-RIB-In pairs edge
// by edge, and each Loc-RIB is finalized by running node.decide itself, so
// the installed state is field-for-field the state the DES flood converges
// to. TestWarmStartMatchesDES asserts this equality against a real flood.

// Route-source classes used during the staged computation.
const (
	wsNone uint8 = iota
	wsSelf
	wsCustomer
	wsPeer
	wsProvider
)

// warmScratch is WarmStart's reusable working memory, cached on the Network
// so that the per-origin warm starts of an experiment sweep allocate it once.
type warmScratch struct {
	adv      []Path            // adv[v]: v's full advertisement path, nil = no route
	advID    []PathID          // advID[v]: interned ID of adv[v]
	class    []uint8           // class[v]: preference class of v's best route
	pending  []bool            // stage A: already queued for the next BFS level
	indeg    []int32           // stage C: unprocessed-provider counts
	order    []topology.NodeID // stage C: Kahn processing order
	frontier []topology.NodeID // stage A: current BFS level
	next     []topology.NodeID // stage A: next BFS level
}

// reset sizes the scratch for n nodes and clears every array.
func (w *warmScratch) reset(n int) {
	if cap(w.adv) < n {
		w.adv = make([]Path, n)
		w.advID = make([]PathID, n)
		w.class = make([]uint8, n)
		w.pending = make([]bool, n)
		w.indeg = make([]int32, n)
		w.order = make([]topology.NodeID, 0, n)
		w.frontier = make([]topology.NodeID, 0, n)
		w.next = make([]topology.NodeID, 0, n)
	}
	w.adv = w.adv[:n]
	w.advID = w.advID[:n]
	w.class = w.class[:n]
	w.pending = w.pending[:n]
	w.indeg = w.indeg[:n]
	clear(w.adv)
	clear(w.advID)
	clear(w.class)
	clear(w.pending)
	w.order = w.order[:0]
	w.frontier = w.frontier[:0]
	w.next = w.next[:0]
}

// WarmStart installs the converged routing state for prefix f originated at
// origin, as if the prefix had been announced and the network had fully
// converged and gone quiet — but without simulating the flood. It must be
// called on a freshly Reset network; it schedules no events, draws no
// randomness and touches no counters, so the subsequent DOWN/UP event phases
// start from virtual time zero with idle MRAI timers and zeroed counters
// (the same observable baseline the cold path reaches via Run + Settle +
// ResetCounters).
//
// Warm start is incompatible with flap dampening: the cold flood accrues
// per-session flap penalties that a static computation cannot reproduce.
// Callers gate on Config.Dampening.Enabled (see core.RunCEvents).
func (net *Network) WarmStart(origin topology.NodeID, f Prefix) {
	n := len(net.nodes)
	// adv[v] is v's full advertisement path ([v ... origin], nil = no
	// route); class[v] is the preference class of v's best route.
	net.ws.reset(n)
	adv, advID, class := net.ws.adv, net.ws.advID, net.ws.class
	class[origin] = wsSelf
	adv[origin], advID[origin] = net.intern.prepend(origin, nil)

	// Stage A: customer routes, breadth-first up the provider DAG. A node
	// enters the frontier the first level one of its customers exports to
	// it; at that moment its shortest customer routes are exactly the ones
	// already final, so a single decide over them is its final best.
	// (Customers finalized in the same or a later level advertise strictly
	// longer paths and can never win; they are still installed in the
	// Adj-RIB-In below.)
	frontier := append(net.ws.frontier, origin)
	next := net.ws.next
	pending := net.ws.pending
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			nd := &net.nodes[u]
			ids := net.nbrIDs(nd)
			for j, rel := range net.nbrRels(nd) {
				if rel != topology.Provider {
					continue
				}
				p := ids[j]
				if class[p] != wsNone || pending[p] || adv[u].Contains(p) {
					continue
				}
				pending[p] = true
				next = append(next, p)
			}
		}
		for _, pid := range next {
			pending[pid] = false
			nd := &net.nodes[pid]
			if slot, _ := net.warmBest(nd, adv, class, topology.Customer); slot >= 0 {
				class[pid] = wsCustomer
				adv[pid], advID[pid] = net.intern.prepend(pid, adv[net.nbrIDs(nd)[slot]])
			}
		}
		frontier, next = next, frontier
	}
	net.ws.frontier, net.ws.next = frontier, next // retain grown capacity

	// Stage B: one peer hop. Only customer- or self-routed peers export
	// across peering links, so these routes never propagate further and the
	// stage is a single order-independent pass.
	//
	// Stages B and C skip sinks (every node without a customer; the origin,
	// if it is one, got its class above). A sink's advertisement is read by
	// nobody — stage A climbs from customers, stage B takes customer- or
	// self-routed peers, stage C takes providers, and the install phase finds
	// a peer- or provider-learned route exportable to customers only — so it
	// is neither chosen nor built here. The sink's Loc-RIB comes out of the
	// finalize pass like everyone's, from the Adj-RIB-In its neighbors fill;
	// the body stays unbuilt, as the DES leaves it (see applyDecision).
	for i := range net.nodes {
		nd := &net.nodes[i]
		if class[i] != wsNone || nd.sink {
			continue
		}
		if slot, _ := net.warmBest(nd, adv, class, topology.Peer); slot >= 0 {
			class[i] = wsPeer
			adv[i], advID[i] = net.intern.prepend(nd.id, adv[net.nbrIDs(nd)[slot]])
		}
	}

	// Stage C: provider routes, in provider-DAG topological order (Kahn):
	// when a node is processed all of its providers' advertisements are
	// final, whichever class they ended up in.
	indeg, order := net.ws.indeg, net.ws.order
	for i := range net.nodes {
		indeg[i] = int32(len(net.topo.Nodes[i].Providers))
		if indeg[i] == 0 {
			order = append(order, topology.NodeID(i))
		}
	}
	for k := 0; k < len(order); k++ {
		v := order[k]
		nd := &net.nodes[v]
		if class[v] == wsNone && !nd.sink {
			if slot, _ := net.warmBest(nd, adv, class, topology.Provider); slot >= 0 {
				class[v] = wsProvider
				adv[v], advID[v] = net.intern.prepend(v, adv[net.nbrIDs(nd)[slot]])
			}
		}
		ids := net.nbrIDs(nd)
		for j, rel := range net.nbrRels(nd) {
			if rel != topology.Customer {
				continue
			}
			c := ids[j]
			if indeg[c]--; indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	net.ws.order = order // retain grown capacity

	// Install phase: put each advertisement on the wire of every session its
	// export predicate allows, exactly as reconcile would — the canonical
	// Path lands in the sender's Adj-RIB-Out and its ID in the receiver's
	// Adj-RIB-In.
	for i := range net.nodes {
		nd := &net.nodes[i]
		full := adv[i]
		if full == nil {
			continue
		}
		// Adj-RIB-Out entries are written without going through send: the
		// origin in particular must not look silent to WithdrawPrefix.
		nd.spoke = true
		fromCustomerOrSelf := class[i] == wsSelf || class[i] == wsCustomer
		ids, rels, rev, out := net.nbrIDs(nd), net.nbrRels(nd), net.reverse(nd), net.out(nd)
		for j, nbr := range ids {
			if !exportable(nbr, rels[j], full, fromCustomerOrSelf) {
				continue
			}
			out[j].lastSent.Set(f, full)
			to := &net.nodes[nbr]
			net.rib(to, net.state(to, f))[rev[j]].install(advID[i], len(full))
		}
	}

	// Finalize every Loc-RIB with the engine's own decision process over the
	// installed Adj-RIB-In, and pre-validate the cached advertisement body
	// (adv[i] is the best path prepended with the own ID by construction,
	// which is what a converged network holds after its last reconcile) —
	// only where one was built: stages B and C left every other sink's to
	// applyDecision.
	//
	// Every full path ends at the origin, so sender-side loop suppression
	// blocks every advertisement toward it: the origin's state must be
	// created explicitly.
	ops := net.state(&net.nodes[origin], f)
	ops.selfOrigin = true
	for i := range net.nodes {
		nd := &net.nodes[i]
		ps, ok := nd.prefixes.Get(f)
		if !ok {
			continue
		}
		ps.bestSlot, ps.bestID = net.decide(nd, ps)
		if adv[i] != nil {
			ps.fullID, ps.fullValid = advID[i], true
		}
	}
}

// warmBest runs the decision process over the subset of nd's neighbors with
// relation rel whose advertisement is exportable toward nd: for Customer and
// Peer sessions the engine's export predicate admits only customer- or
// self-routed senders, for Provider sessions any routed sender; in every
// case the path must not contain the recipient (sender-side loop
// suppression). Local preference is constant across one relation class, so
// the comparison reduces to node.decide's remaining tie-break chain:
// shortest path, then lowest tieHash, then (via strict improvement) the
// lowest slot.
func (net *Network) warmBest(nd *node, adv []Path, class []uint8, rel topology.Relation) (slot int, path Path) {
	best := int32(noneSlot)
	var bestPath Path
	bestLen := 0
	ids := net.nbrIDs(nd)
	for j, r := range net.nbrRels(nd) {
		if r != rel {
			continue
		}
		u := ids[j]
		p := adv[u]
		if p == nil || p.Contains(nd.id) {
			continue
		}
		if rel != topology.Provider && class[u] != wsSelf && class[u] != wsCustomer {
			continue
		}
		plen := len(p)
		if best == noneSlot || plen < bestLen || (plen == bestLen && net.tieLess(nd, int32(j), best)) {
			best, bestPath, bestLen = int32(j), p, plen
		}
	}
	if best == noneSlot {
		return -1, nil
	}
	return int(best), bestPath
}
