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
// It returns the first violation found, or nil.
func (t *Topology) Validate() error {
	if err := t.validateLists(); err != nil {
		return err
	}
	if err := t.validateTypes(); err != nil {
		return err
	}
	if len(customersFirst(t)) < t.N() {
		return fmt.Errorf("topology: provider loop detected")
	}
	if err := t.validatePeering(); err != nil {
		return err
	}
	if !t.connected() {
		return fmt.Errorf("topology: graph is not connected")
	}
	return nil
}

// connected reports whether one breadth-first walk over the neighbor lists
// from node 0 reaches every node (the empty graph is connected). The lists
// must be symmetric; validateLists checks that first.
func (t *Topology) connected() bool {
	n := t.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := append(make([]NodeID, 0, n), 0)
	for k := 0; k < len(queue); k++ {
		nd := &t.Nodes[queue[k]]
		for _, list := range [...][]NodeID{nd.Customers, nd.Peers, nd.Providers} {
			for _, v := range list {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return len(queue) == n
}

func (t *Topology) validateLists() error {
	// seen maps every directed listing from→to to the relation from lists to
	// under — the first one in (customers, peers, providers) order, which is
	// what Relation(from, to) returns — so the back-link test below is a
	// lookup instead of a scan of the neighbor's lists (quadratic at the
	// high-degree core).
	links := 0
	for i := range t.Nodes {
		links += t.Nodes[i].Degree()
	}
	seen := make(map[uint64]Relation, links)
	directed := func(from, to NodeID) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for rel, list := range [][]NodeID{Customer: n.Customers, Peer: n.Peers, Provider: n.Providers} {
			for _, nb := range list {
				if _, ok := seen[directed(NodeID(i), nb)]; !ok {
					seen[directed(NodeID(i), nb)] = Relation(rel)
				}
			}
		}
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("topology: node at index %d has ID %d", i, n.ID)
		}
		check := func(nb NodeID, rel Relation) error {
			if nb == n.ID {
				return fmt.Errorf("topology: node %d has a self-loop", n.ID)
			}
			if int(nb) < 0 || int(nb) >= len(t.Nodes) {
				return fmt.Errorf("topology: node %d references out-of-range neighbor %d", n.ID, nb)
			}
			if !n.Regions.Overlaps(t.Nodes[nb].Regions) {
				return fmt.Errorf("topology: link %d-%d crosses disjoint regions", n.ID, nb)
			}
			back, ok := seen[directed(nb, n.ID)]
			if !ok {
				back = NotConnected
			}
			if back != rel.Invert() {
				return fmt.Errorf("topology: asymmetric link %d-%d: %v vs %v", n.ID, nb, rel, back)
			}
			if seen[directed(n.ID, nb)] != rel {
				return fmt.Errorf("topology: parallel links %d-%d with different relations", n.ID, nb)
			}
			return nil
		}
		for _, c := range n.Customers {
			if err := check(c, Customer); err != nil {
				return err
			}
		}
		for _, p := range n.Peers {
			if err := check(p, Peer); err != nil {
				return err
			}
		}
		for _, p := range n.Providers {
			if err := check(p, Provider); err != nil {
				return err
			}
		}
		// Duplicate entries within a single list are parallel links too.
		dup := make(map[NodeID]struct{}, n.Degree())
		for _, lists := range [][]NodeID{n.Customers, n.Peers, n.Providers} {
			for _, v := range lists {
				if _, ok := dup[v]; ok {
					return fmt.Errorf("topology: node %d linked to %d more than once", n.ID, v)
				}
				dup[v] = struct{}{}
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

func (t *Topology) validatePeering() error {
	cones := customerCones(t)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for _, p := range n.Peers {
			if cones[i].contains(p) {
				return fmt.Errorf("topology: node %d peers with %d inside its customer tree", n.ID, p)
			}
		}
	}
	return nil
}
