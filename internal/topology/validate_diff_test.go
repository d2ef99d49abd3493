package topology

import (
	"fmt"
	"strings"
	"testing"

	"bgpchurn/internal/rng"
)

// Differential tier for Validate. The linear-time checks (one bottom-up cone
// pass for the peering rule, a map lookup for the back-link rule) must
// accept and reject exactly what the original quadratic predicates do, with
// the same message: a per-peering-link InCustomerTree DFS and a
// Relation(nb, n) scan of the neighbor's lists per link. The originals are
// kept here as the executable specification.

// validateReference is Validate with the original predicates.
func validateReference(t *Topology) error {
	if err := referenceLists(t); err != nil {
		return err
	}
	if err := t.validateTypes(); err != nil {
		return err
	}
	if t.ProviderDAG().HasCycle() {
		return fmt.Errorf("topology: provider loop detected")
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for _, p := range n.Peers {
			if t.InCustomerTree(n.ID, p) {
				return fmt.Errorf("topology: node %d peers with %d inside its customer tree", n.ID, p)
			}
		}
	}
	if !t.Undirected().IsConnected() {
		return fmt.Errorf("topology: graph is not connected")
	}
	return nil
}

func referenceLists(t *Topology) error {
	seen := make(map[uint64]Relation)
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
			if back := t.Relation(nb, n.ID); back != rel.Invert() {
				return fmt.Errorf("topology: asymmetric link %d-%d: %v vs %v", n.ID, nb, rel, back)
			}
			canon := rel
			if n.ID > nb {
				canon = rel.Invert()
			}
			if prev, ok := seen[edgeKey(n.ID, nb)]; ok && prev != canon {
				return fmt.Errorf("topology: parallel links %d-%d with different relations", n.ID, nb)
			}
			seen[edgeKey(n.ID, nb)] = canon
			return nil
		}
		for rel, list := range [][]NodeID{Customer: n.Customers, Peer: n.Peers, Provider: n.Providers} {
			for _, v := range list {
				if err := check(v, Relation(rel)); err != nil {
					return err
				}
			}
		}
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

// relabel returns a copy of t with node i renamed perm[i], list order
// preserved, so IDs no longer follow creation (provider-before-customer)
// order.
func relabel(t *Topology, perm []NodeID) *Topology {
	out := &Topology{NumRegions: t.NumRegions, Nodes: make([]Node, len(t.Nodes))}
	mapList := func(l []NodeID) []NodeID {
		var m []NodeID
		for _, v := range l {
			m = append(m, perm[v])
		}
		return m
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		out.Nodes[perm[i]] = Node{
			ID: perm[i], Type: n.Type, Regions: n.Regions,
			Customers: mapList(n.Customers), Peers: mapList(n.Peers), Providers: mapList(n.Providers),
		}
	}
	return out
}

// diffTopologies returns random valid topologies in creation order and
// relabeled, across sizes that put cones on both sides of the list/bitset
// threshold.
func diffTopologies(t *testing.T) []*Topology {
	t.Helper()
	var out []*Topology
	for seed := uint64(1); seed <= 8; seed++ {
		n := 120 + int(seed)*90
		p := baselineParams(n, seed)
		switch seed % 4 {
		case 1:
			p.PM *= 3
		case 2:
			p.MaxMProviders = 1
		case 3:
			p.Regions = 1
		}
		topo := MustGenerate(p)
		perm := identity(n)
		rng.New(seed+100).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		out = append(out, topo, relabel(topo, perm))
	}
	return out
}

func sameVerdict(t *testing.T, label string, topo *Topology) {
	t.Helper()
	got, want := fmt.Sprint(topo.Validate()), fmt.Sprint(validateReference(topo))
	if got != want {
		t.Fatalf("%s: Validate = %q, reference = %q", label, got, want)
	}
}

func TestCustomerConesMatchDFS(t *testing.T) {
	for k, topo := range diffTopologies(t) {
		cones := customerCones(topo)
		r := rng.New(uint64(k) + 7)
		for i := range topo.Nodes {
			a := NodeID(i)
			if got, want := cones[i].size, topo.CustomerConeSize(a); got != want {
				t.Fatalf("topology %d node %d: cone size %d, DFS says %d", k, i, got, want)
			}
			probes := append([]NodeID{a}, topo.Nodes[i].Peers...)
			for j := 0; j < 8; j++ {
				probes = append(probes, NodeID(r.Intn(topo.N())))
			}
			for _, d := range probes {
				if got, want := cones[i].contains(d), topo.InCustomerTree(a, d); got != want {
					t.Fatalf("topology %d: cone(%d) contains %d = %v, DFS says %v", k, a, d, got, want)
				}
			}
		}
	}
}

func TestValidateMatchesReference(t *testing.T) {
	unlink := func(l []NodeID, v NodeID) []NodeID {
		for i, x := range l {
			if x == v {
				return append(append([]NodeID(nil), l[:i]...), l[i+1:]...)
			}
		}
		return l
	}
	coneCases := 0
	for k, topo := range diffTopologies(t) {
		sameVerdict(t, fmt.Sprintf("topology %d valid", k), topo)
		if err := topo.Validate(); err != nil {
			t.Fatalf("topology %d: generated topology rejected: %v", k, err)
		}
		r := rng.New(uint64(k) + 31)
		// Pick a transit node with a grandchild: a peering link into its cone
		// must be rejected.
		var anc, desc NodeID = None, None
		for i := range topo.Nodes {
			for _, c := range topo.Nodes[i].Customers {
				if gc := topo.Nodes[c].Customers; len(gc) > 0 && topo.Relation(NodeID(i), gc[0]) == NotConnected &&
					topo.Nodes[i].Regions.Overlaps(topo.Nodes[gc[0]].Regions) && topo.Nodes[gc[0]].Type != C {
					anc, desc = NodeID(i), gc[0]
				}
			}
		}
		corruptions := map[string]func(c *Topology){
			"asymmetric link": func(c *Topology) {
				a := NodeID(r.Intn(c.N()))
				for len(c.Nodes[a].Providers) == 0 {
					a = NodeID(r.Intn(c.N()))
				}
				p := c.Nodes[a].Providers[0]
				c.Nodes[p].Customers = unlink(c.Nodes[p].Customers, a)
			},
			"relation mismatch": func(c *Topology) {
				a := NodeID(r.Intn(c.N()))
				for len(c.Nodes[a].Providers) == 0 {
					a = NodeID(r.Intn(c.N()))
				}
				p := c.Nodes[a].Providers[0]
				c.Nodes[p].Customers = unlink(c.Nodes[p].Customers, a)
				c.Nodes[p].Peers = append(c.Nodes[p].Peers, a)
			},
			"duplicate link": func(c *Topology) {
				a := NodeID(r.Intn(c.N()))
				for len(c.Nodes[a].Providers) == 0 {
					a = NodeID(r.Intn(c.N()))
				}
				p := c.Nodes[a].Providers[0]
				c.Nodes[a].Providers = append(c.Nodes[a].Providers, p)
				c.Nodes[p].Customers = append(c.Nodes[p].Customers, a)
			},
			"two relations on one link": func(c *Topology) {
				a := NodeID(r.Intn(c.N()))
				for len(c.Nodes[a].Providers) == 0 {
					a = NodeID(r.Intn(c.N()))
				}
				p := c.Nodes[a].Providers[0]
				c.Nodes[a].Peers = append(c.Nodes[a].Peers, p)
				c.Nodes[p].Peers = append(c.Nodes[p].Peers, a)
			},
		}
		if anc != None {
			coneCases++
			corruptions["peer inside cone"] = func(c *Topology) {
				c.Nodes[anc].Peers = append(c.Nodes[anc].Peers, desc)
				c.Nodes[desc].Peers = append(c.Nodes[desc].Peers, anc)
			}
		}
		for name, corrupt := range corruptions {
			c := relabel(topo, identity(topo.N())) // deep copy
			corrupt(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("topology %d: corruption %q accepted", k, name)
			}
			if name == "peer inside cone" && !strings.Contains(err.Error(), "inside its customer tree") {
				t.Fatalf("topology %d: peer inside cone rejected for another reason: %v", k, err)
			}
			sameVerdict(t, fmt.Sprintf("topology %d %s", k, name), c)
		}
	}
	if coneCases == 0 {
		t.Fatal("no topology offered a peer-inside-cone corruption")
	}
}

func identity(n int) []NodeID {
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	return perm
}
