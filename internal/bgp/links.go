package bgp

import (
	"fmt"
	"slices"

	"bgpchurn/internal/topology"
)

// Link failure/recovery events. The paper's evaluation uses C-events
// (prefix withdraw + re-announce at the origin); link events are the "more
// complex events" its future-work section names, provided as an extension.

// FailLink tears down the session between a and b: in-flight state toward
// each other is flushed, Adj-RIB-In entries learned over the link are
// removed, and both ends re-run their decision process. Call Run afterwards
// to propagate the resulting updates.
func (net *Network) FailLink(a, b topology.NodeID) error {
	ja, jb, err := net.slots(a, b)
	if err != nil {
		return err
	}
	na, nb := &net.nodes[a], &net.nodes[b]
	if net.out(na)[ja].down() {
		return fmt.Errorf("bgp: link %d-%d already down", a, b)
	}
	net.sessionDown(na, int32(ja))
	net.sessionDown(nb, int32(jb))
	return nil
}

// RestoreLink re-establishes the session between a and b: both ends
// re-advertise their current best routes to each other per export policy,
// as in a BGP session establishment's initial table exchange. Call Run
// afterwards to propagate.
func (net *Network) RestoreLink(a, b topology.NodeID) error {
	ja, jb, err := net.slots(a, b)
	if err != nil {
		return err
	}
	na, nb := &net.nodes[a], &net.nodes[b]
	if !net.out(na)[ja].down() {
		return fmt.Errorf("bgp: link %d-%d is not down", a, b)
	}
	net.out(na)[ja].flags &^= qDown
	net.out(nb)[jb].flags &^= qDown
	net.resyncSlot(na, int32(ja))
	net.resyncSlot(nb, int32(jb))
	return nil
}

// LinkDown reports whether the a→b session is currently failed.
func (net *Network) LinkDown(a, b topology.NodeID) bool {
	ja, _, err := net.slots(a, b)
	if err != nil {
		return false
	}
	return net.out(&net.nodes[a])[ja].down()
}

// slots resolves the slot of b in a's neighbor list and vice versa.
func (net *Network) slots(a, b topology.NodeID) (ja, jb int, err error) {
	ja, jb = -1, -1
	for j, id := range net.nbrIDs(&net.nodes[a]) {
		if id == b {
			ja = j
			break
		}
	}
	for j, id := range net.nbrIDs(&net.nodes[b]) {
		if id == a {
			jb = j
			break
		}
	}
	if ja < 0 || jb < 0 {
		return 0, 0, fmt.Errorf("bgp: %d and %d are not adjacent", a, b)
	}
	return ja, jb, nil
}

// sessionDown clears all state of nd's session at slot j — what nd has on
// the wire and queued toward the neighbor, and what the neighbor sent that nd
// has not processed yet — and re-runs the decision process for every prefix
// that was learned over it.
func (net *Network) sessionDown(nd *node, j int32) {
	net.dropInFlight(nd, j)
	q := &net.out(nd)[j]
	net.touch(q)
	q.flags |= qDown
	q.clearRoutes() // a queued flush event will find the link down and bail
	for _, f := range nd.prefixes.sortedKeys() {
		ps, _ := nd.prefixes.Get(f)
		r := &net.rib(nd, ps)[j]
		if r.id == NoPath {
			continue
		}
		r.install(NoPath, 0)
		net.applyDecision(nd, f, ps)
	}
}

// dropInFlight discards, as RFC 4271 has a reset session do, the updates the
// neighbor at slot j sent nd that nd has not processed: those the windowed
// executor has not admitted yet, those parked in nd's inbox, and the one nd
// is processing as its own event (cur). The scheduler cannot take that event
// back, so it stays queued with its slot set to noneSlot and fires without
// processing anything (node.Fire). An admitted update keeps the processing
// delay it drew and the ticket it reserved, so no other draw or ticket moves.
// Only sessionDown pays for this; the per-update path is unchanged.
func (net *Network) dropInFlight(nd *node, j int32) {
	if net.windowed {
		p, gen := len(net.shards), net.outbox[net.parity]
		dst := int(net.partOf[nd.id])
		for src, sh := range net.shards {
			run := gen[src*p+dst]
			kept := slices.DeleteFunc(run, func(m wireMsg) bool { return m.to == nd.id && m.fromSlot == j })
			gen[src*p+dst] = kept
			// firstArrival stays a lower bound, which is all windowBound needs.
			sh.emitted -= len(run) - len(kept)
		}
	}
	if nd.delivering && nd.cur.fromSlot == j {
		nd.cur.fromSlot = noneSlot
	}
	parked := slices.DeleteFunc(nd.inbox[nd.inboxHead:], func(m inMsg) bool { return m.fromSlot == j })
	nd.inbox = nd.inbox[:int(nd.inboxHead)+len(parked)]
}

// resyncSlot advertises nd's current best routes to the neighbor at slot j,
// as on session (re-)establishment.
func (net *Network) resyncSlot(nd *node, j int32) {
	q := &net.out(nd)[j]
	nbr, rel := net.nbrIDs(nd)[j], net.nbrRels(nd)[j]
	for _, f := range nd.prefixes.sortedKeys() {
		ps, _ := nd.prefixes.Get(f)
		if ps.bestSlot == noneSlot {
			continue
		}
		full, fromCustomerOrSelf := net.advertisement(nd, ps)
		if exportable(nbr, rel, full, fromCustomerOrSelf) {
			net.setDesired(nd, q, f, ps.fullID)
		}
	}
}
