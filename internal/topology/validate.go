package topology

import "fmt"

// Validate checks every structural invariant the generator promises:
//
//   - neighbor lists are symmetric and relation-consistent;
//   - the graph is simple (no self-loops or parallel links);
//   - the provider relation is acyclic (hierarchical structure);
//   - T nodes have no providers and form a full peering clique;
//   - stub nodes (CP, C) have no customers; C nodes have no peers;
//   - every non-T node has at least one provider;
//   - linked nodes share at least one region;
//   - no node peers with a member of its own customer tree;
//   - the graph is connected.
//
// It returns the first violation found, or nil. It reads the topology's CSR,
// which is built once and cached, so the lists must not change after the
// first CSR call.
func (t *Topology) Validate() error {
	if err := t.validateLists(); err != nil {
		return err
	}
	if err := t.validateTypes(); err != nil {
		return err
	}
	order := customersFirst(t)
	if len(order) < t.N() {
		return fmt.Errorf("topology: provider loop detected")
	}
	if err := t.validatePeering(order); err != nil {
		return err
	}
	if !t.connected() {
		return fmt.Errorf("topology: graph is not connected")
	}
	return nil
}

// connected reports whether one breadth-first walk over the CSR from node 0
// reaches every node (the empty graph is connected). The lists must be
// symmetric; validateLists checks that first.
func (t *Topology) connected() bool {
	if t.N() == 0 {
		return true
	}
	for _, d := range t.CSR().BFSDistances(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// validateLists checks the neighbor lists slot by slot on the CSR, in row
// and slot order. The relation a node lists a neighbor under is the one of
// its first listing, which is what Relation(from, to) returns: first[k] is
// that listing's position in slot k's row. A slot's back link is the first
// listing of its reverse slot (Reverse names the last), and it must carry the
// inverse relation. That rejects a second listing under another relation
// too, since the back link is the same for both; a second listing under the
// same relation is a duplicate, reported once the row's slots pass.
func (t *Topology) validateLists() error {
	n := t.N()
	a := t.CSR()
	first := make([]int32, len(a.IDs))
	mark := make([]int32, n) // position of a target in the current row, -1 if absent
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := a.Row(NodeID(i))
		for k := lo; k < hi; k++ {
			if v := a.IDs[k]; uint32(v) < uint32(n) {
				if mark[v] < 0 {
					mark[v] = k - lo
				}
				first[k] = mark[v]
			}
		}
		for k := lo; k < hi; k++ {
			if v := a.IDs[k]; uint32(v) < uint32(n) {
				mark[v] = -1
			}
		}
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.ID != NodeID(i) {
			return fmt.Errorf("topology: node at index %d has ID %d", i, nd.ID)
		}
		lo, hi := a.Row(nd.ID)
		for k := lo; k < hi; k++ {
			nb, rel := a.IDs[k], a.Rels[k]
			if nb == nd.ID {
				return fmt.Errorf("topology: node %d has a self-loop", nd.ID)
			}
			if uint32(nb) >= uint32(n) {
				return fmt.Errorf("topology: node %d references out-of-range neighbor %d", nd.ID, nb)
			}
			if !nd.Regions.Overlaps(t.Nodes[nb].Regions) {
				return fmt.Errorf("topology: link %d-%d crosses disjoint regions", nd.ID, nb)
			}
			back := NotConnected
			if r := a.Reverse[k]; r >= 0 {
				nlo, _ := a.Row(nb)
				back = a.Rels[nlo+first[nlo+r]]
			}
			if back != rel.Invert() {
				return fmt.Errorf("topology: asymmetric link %d-%d: %v vs %v", nd.ID, nb, rel, back)
			}
		}
		for k := lo; k < hi; k++ {
			if first[k] != k-lo {
				return fmt.Errorf("topology: node %d linked to %d more than once", nd.ID, a.IDs[k])
			}
		}
	}
	return nil
}

func (t *Topology) validateTypes() error {
	var tIDs []NodeID
	for i := range t.Nodes {
		n := &t.Nodes[i]
		switch n.Type {
		case T:
			if len(n.Providers) != 0 {
				return fmt.Errorf("topology: T node %d has providers", n.ID)
			}
			tIDs = append(tIDs, n.ID)
		case M:
			if len(n.Providers) == 0 {
				return fmt.Errorf("topology: M node %d has no provider", n.ID)
			}
		case CP:
			if len(n.Customers) != 0 {
				return fmt.Errorf("topology: CP node %d has customers", n.ID)
			}
			if len(n.Providers) == 0 {
				return fmt.Errorf("topology: CP node %d has no provider", n.ID)
			}
		case C:
			if len(n.Customers) != 0 {
				return fmt.Errorf("topology: C node %d has customers", n.ID)
			}
			if len(n.Peers) != 0 {
				return fmt.Errorf("topology: C node %d has peers", n.ID)
			}
			if len(n.Providers) == 0 {
				return fmt.Errorf("topology: C node %d has no provider", n.ID)
			}
		default:
			return fmt.Errorf("topology: node %d has invalid type %d", n.ID, n.Type)
		}
	}
	// T clique.
	for _, a := range tIDs {
		for _, b := range tIDs {
			if a != b && t.Relation(a, b) != Peer {
				return fmt.Errorf("topology: T nodes %d and %d are not peered", a, b)
			}
		}
	}
	return nil
}

// validatePeering rejects the first peering link, in node and peer-list
// order, into a node's own customer cone, reading the relation over the nodes
// with customers (a node without customers has an empty cone). order is
// customersFirst(t), complete.
func (t *Topology) validatePeering(order []NodeID) error {
	rel := coneRelation(t, order)
	for i := range t.Nodes {
		k := int(rel.index[i])
		if k < 0 {
			continue
		}
		for _, p := range t.Nodes[i].Peers {
			if rel.inCone(t.Nodes, k, p) {
				return fmt.Errorf("topology: node %d peers with %d inside its customer tree", i, p)
			}
		}
	}
	return nil
}
