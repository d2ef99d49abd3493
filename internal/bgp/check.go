package bgp

import (
	"fmt"

	"bgpchurn/internal/topology"
)

// CheckConsistency verifies the engine's cross-node invariants on a
// quiescent network (Pending() == 0). It is meant for tests and debugging;
// it is not called on hot paths.
//
// Checked invariants, for every session u→v and prefix f:
//
//  1. wire agreement: what u last sent (Adj-RIB-Out) is exactly what v
//     holds from u (Adj-RIB-In), unless the link is down;
//  2. no queued updates remain (quiescence implies empty output queues);
//  3. u's Loc-RIB equals a fresh run of its decision process;
//  4. every advertised path is u's current best prepended with u, is
//     loop-free, and does not contain the recipient;
//  5. export policy: a path learned from a peer or provider is never on
//     the wire toward another peer or provider.
func (net *Network) CheckConsistency() error {
	if net.Pending() != 0 {
		return fmt.Errorf("bgp: network not quiescent (%d events pending)", net.Pending())
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		// (3) Loc-RIB is a fixed point of the decision process.
		for _, f := range nd.prefixes.sortedKeys() {
			ps, _ := nd.prefixes.Get(f)
			if slot, id := net.decide(nd, ps); slot != ps.bestSlot || id != ps.bestID {
				return fmt.Errorf("bgp: node %d prefix %d: stale Loc-RIB (have slot %d, decide says %d)",
					nd.id, f, ps.bestSlot, slot)
			}
		}
		ids, out := net.nbrIDs(nd), net.out(nd)
		for j := range out {
			q := &out[j]
			// (2) no residual queued updates.
			if n := q.pending.Len(); n != 0 {
				return fmt.Errorf("bgp: node %d slot %d: %d updates still queued on a quiescent network",
					nd.id, j, n)
			}
			if q.down {
				if q.lastSent.Len() != 0 {
					return fmt.Errorf("bgp: node %d slot %d: adj-rib-out persists on a down link", nd.id, j)
				}
				continue
			}
			peer := &net.nodes[ids[j]]
			rev := net.reverse(nd)[j]
			for _, f := range q.lastSent.SortedKeysInto(nil) {
				sent, _ := q.lastSent.Get(f)
				// (1) wire agreement.
				pps, ok := peer.prefixes.Get(f)
				if !ok || !sent.Equal(net.intern.path(net.rib(peer, pps)[rev].id)) {
					return fmt.Errorf("bgp: session %d->%d prefix %d: adj-rib-out and adj-rib-in disagree",
						nd.id, peer.id, f)
				}
				if err := net.checkAdvertisement(nd, j, f, sent); err != nil {
					return err
				}
			}
			// (1) converse direction: nothing in v's RIB that u did not send.
			for _, f := range peer.prefixes.sortedKeys() {
				pps, _ := peer.prefixes.Get(f)
				if net.rib(peer, pps)[rev].id != NoPath {
					if _, ok := q.lastSent.Get(f); !ok {
						return fmt.Errorf("bgp: session %d->%d prefix %d: receiver holds a route the sender never advertised",
							nd.id, peer.id, f)
					}
				}
			}
		}
	}
	return nil
}

// checkAdvertisement verifies invariants (4) and (5) for one wire entry.
func (net *Network) checkAdvertisement(nd *node, j int, f Prefix, sent Path) error {
	nbr, rels := net.nbrIDs(nd)[j], net.nbrRels(nd)
	ps, ok := nd.prefixes.Get(f)
	if !ok || ps.bestSlot == noneSlot {
		return fmt.Errorf("bgp: node %d advertises prefix %d to %d without a best route",
			nd.id, f, nbr)
	}
	var want Path
	fromCustomerOrSelf := false
	if ps.bestSlot == selfSlot {
		want = Path{nd.id}
		fromCustomerOrSelf = true
	} else {
		want = net.bestPath(ps).Prepend(nd.id)
		fromCustomerOrSelf = rels[ps.bestSlot] == topology.Customer
	}
	if !sent.Equal(want) {
		return fmt.Errorf("bgp: node %d prefix %d: wire path %v is not the current best %v",
			nd.id, f, sent, want)
	}
	seen := make(map[topology.NodeID]struct{}, len(sent))
	for _, v := range sent {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("bgp: node %d prefix %d: looped path %v on the wire", nd.id, f, sent)
		}
		seen[v] = struct{}{}
	}
	if sent.Contains(nbr) {
		return fmt.Errorf("bgp: node %d prefix %d: path through recipient %d on the wire",
			nd.id, f, nbr)
	}
	if !fromCustomerOrSelf && rels[j] != topology.Customer {
		return fmt.Errorf("bgp: node %d prefix %d: valley export to %v neighbor %d",
			nd.id, f, rels[j], nbr)
	}
	return nil
}

// checkReconciled is the debug-only (Config.Check) RIB invariant checker,
// run after every reconcile on the node that just changed its best route.
// Unlike CheckConsistency it must hold mid-convergence, so it checks only
// node-local invariants:
//
//  1. best-route consistency: the Loc-RIB is a fixpoint of the decision
//     process, and the cached advertisement body matches it;
//  2. no dangling PathID: every Adj-RIB-In entry, the best-route ID and the
//     advertisement ID resolve inside the intern table, and every session's
//     rank agrees with its relation and the length of its path;
//  3. Adj-RIB-Out ⊆ export-policy closure: for every live neighbor, the
//     wire-or-queued state setDesired just reconciled is exactly the
//     export-policy image of the best route — an exportable route is on the
//     wire or queued as an announcement, a non-exportable one is off the
//     wire or queued as a withdrawal.
//
// Violations panic: the checker runs in test tiers where an invariant break
// is a bug in the engine, never a recoverable condition.
func (net *Network) checkReconciled(nd *node, f Prefix, ps *prefixState) {
	// (1) decision fixpoint.
	if slot, id := net.decide(nd, ps); slot != ps.bestSlot || id != ps.bestID {
		panic(fmt.Sprintf("bgp: check: node %d prefix %d: Loc-RIB not a decision fixpoint (have slot %d, decide says %d)",
			nd.id, f, ps.bestSlot, slot))
	}
	// (2) intern-table ID validity and rank consistency.
	it := net.intern
	limit := PathID(it.len())
	rows, rels := net.rib(nd, ps), net.nbrRels(nd)
	for j := range rows {
		s := &rows[j]
		if s.id > limit {
			panic(fmt.Sprintf("bgp: check: node %d prefix %d slot %d: dangling PathID %d (table holds %d)",
				nd.id, f, j, s.id, limit))
		}
		if plen := it.lenOf(s.id); s.rel() != rels[j] || int(s.rank&rankLenMask) != plen {
			panic(fmt.Sprintf("bgp: check: node %d prefix %d slot %d: session rank %#x inconsistent with relation %v and path length %d",
				nd.id, f, j, s.rank, rels[j], plen))
		}
	}
	if ps.bestID > limit || (ps.fullValid && ps.fullID > limit) {
		panic(fmt.Sprintf("bgp: check: node %d prefix %d: bestID %d or fullID %d dangling (table holds %d)",
			nd.id, f, ps.bestID, ps.fullID, limit))
	}
	// (1b) the cached advertisement body is the best route prepended.
	if ps.fullValid && ps.bestSlot != noneSlot {
		want := net.bestPath(ps).Prepend(nd.id)
		if full := it.path(ps.fullID); !full.Equal(want) {
			panic(fmt.Sprintf("bgp: check: node %d prefix %d: cached advertisement %v is not best+self %v",
				nd.id, f, full, want))
		}
	}
	// (3) per-neighbor reconciliation postcondition.
	full, fromCustomerOrSelf := net.advertisement(nd, ps)
	ids, rels, out := net.nbrIDs(nd), net.nbrRels(nd), net.out(nd)
	for j := range out {
		q := &out[j]
		if q.down {
			continue
		}
		last, onWire := q.lastSent.Get(f)
		pu, queued := q.pending.Get(f)
		if exportable(ids[j], rels[j], full, fromCustomerOrSelf) {
			wireOK := onWire && last.Equal(full)
			queueOK := queued && pu.kind == Announce && pu.path.Equal(full)
			if !wireOK && !queueOK {
				panic(fmt.Sprintf("bgp: check: node %d prefix %d slot %d: exportable best neither on wire nor queued",
					nd.id, f, j))
			}
		} else {
			if queued && pu.kind == Announce {
				panic(fmt.Sprintf("bgp: check: node %d prefix %d slot %d: queued announcement outside export closure",
					nd.id, f, j))
			}
			if onWire && !(queued && pu.kind == Withdraw) {
				panic(fmt.Sprintf("bgp: check: node %d prefix %d slot %d: stale wire route with no queued withdrawal",
					nd.id, f, j))
			}
		}
	}
}
