package bgp

import (
	"fmt"

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
	if net.out(na)[ja].down {
		return fmt.Errorf("bgp: link %d-%d already down", a, b)
	}
	net.sessionDown(na, ja)
	net.sessionDown(nb, jb)
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
	if !net.out(na)[ja].down {
		return fmt.Errorf("bgp: link %d-%d is not down", a, b)
	}
	net.out(na)[ja].down = false
	net.out(nb)[jb].down = false
	net.resyncSlot(na, ja)
	net.resyncSlot(nb, jb)
	return nil
}

// LinkDown reports whether the a→b session is currently failed.
func (net *Network) LinkDown(a, b topology.NodeID) bool {
	ja, _, err := net.slots(a, b)
	if err != nil {
		return false
	}
	return net.out(&net.nodes[a])[ja].down
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

// sessionDown clears all state of nd's session at slot j and re-runs the
// decision process for every prefix that was learned over it.
func (net *Network) sessionDown(nd *node, j int) {
	q := &net.out(nd)[j]
	q.down = true
	q.pending.Clear()
	q.lastSent.Clear()
	q.clearTimers() // a queued flush event will find down=true and bail
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

// resyncSlot advertises nd's current best routes to the neighbor at slot j,
// as on session (re-)establishment.
func (net *Network) resyncSlot(nd *node, j int) {
	q := &net.out(nd)[j]
	nbr, rel := net.nbrIDs(nd)[j], net.nbrRels(nd)[j]
	for _, f := range nd.prefixes.sortedKeys() {
		ps, _ := nd.prefixes.Get(f)
		if ps.bestSlot == noneSlot {
			continue
		}
		full, fromCustomerOrSelf := net.advertisement(nd, ps)
		if exportable(nbr, rel, full, fromCustomerOrSelf) {
			net.setDesired(nd, q, f, full, ps.fullID)
		}
	}
}
