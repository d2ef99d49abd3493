package topology

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bgpchurn/internal/rng"
)

// Differential tier for Validate. The fast checks (the customer-cone
// relation for the peering rule, a CSR reverse-slot lookup for the back-link
// rule, Kahn's order for the hierarchy rule, one CSR walk for connectivity)
// must accept and reject exactly what the original predicates do, with the
// same message: a per-peering-link InCustomerTree DFS, a Relation(nb, n)
// scan of the neighbor's lists per link, a three-colour DFS over the
// provider→customer links and a BFS over an adjacency-list copy of the
// graph. The originals are kept here as the executable specification.

// validateReference is Validate with the original predicates.
func validateReference(t *Topology) error {
	if err := referenceLists(t); err != nil {
		return err
	}
	if err := t.validateTypes(); err != nil {
		return err
	}
	if referenceHasCycle(t) {
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
	if !referenceConnected(t) {
		return fmt.Errorf("topology: graph is not connected")
	}
	return nil
}

// referenceHasCycle is an iterative three-colour DFS over the
// provider→customer links.
func referenceHasCycle(t *Topology) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, t.N())
	type frame struct {
		node NodeID
		next int
	}
	var stack []frame
	for s := NodeID(0); int(s) < t.N(); s++ {
		if color[s] != white {
			continue
		}
		color[s] = gray
		stack = append(stack[:0], frame{node: s})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			out := t.Nodes[top.node].Customers
			if top.next < len(out) {
				v := out[top.next]
				top.next++
				switch color[v] {
				case gray:
					return true
				case white:
					color[v] = gray
					stack = append(stack, frame{node: v})
				}
			} else {
				color[top.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}

// referenceConnected copies the graph into adjacency lists (each transit
// link from its provider's side, each peering once) and labels components
// by BFS; the graph is connected when there is at most one.
func referenceConnected(t *Topology) bool {
	adj := make([][]NodeID, t.N())
	for i := range t.Nodes {
		n := &t.Nodes[i]
		for _, c := range n.Customers {
			adj[n.ID] = append(adj[n.ID], c)
			adj[c] = append(adj[c], n.ID)
		}
		for _, p := range n.Peers {
			if p > n.ID {
				adj[n.ID] = append(adj[n.ID], p)
				adj[p] = append(adj[p], n.ID)
			}
		}
	}
	labels := make([]int32, t.N())
	for i := range labels {
		labels[i] = -1
	}
	count := 0
	var queue []NodeID
	for s := NodeID(0); int(s) < t.N(); s++ {
		if labels[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if labels[v] < 0 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return count <= 1
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
// relabeled, n from 210 to 840, with tripled M peering, single-homed M nodes
// or one region in turn.
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

// TestCustomerConesMatchDFS holds the relation Validate's peering rule reads
// to the InCustomerTree DFS. For every node with customers it probes the node
// itself, its peers, its customers and theirs, and random nodes; both of
// inCone's branches (a listed node with customers, a stub through its
// providers) must answer yes and no somewhere.
func TestCustomerConesMatchDFS(t *testing.T) {
	var seen [2][2]int // [stub][in cone]
	for k, topo := range diffTopologies(t) {
		rel := coneRelation(topo, customersFirst(topo))
		r := rng.New(uint64(k) + 7)
		for i := range topo.Nodes {
			a, nd := NodeID(i), &topo.Nodes[i]
			row := int(rel.index[i])
			if (row >= 0) != (len(nd.Customers) > 0) {
				t.Fatalf("topology %d node %d: listed %v with %d customers", k, i, row >= 0, len(nd.Customers))
			}
			if row < 0 {
				continue
			}
			probes := append([]NodeID{a}, nd.Peers...)
			for _, c := range nd.Customers {
				probes = append(append(probes, c), topo.Nodes[c].Customers...)
			}
			for j := 0; j < 8; j++ {
				probes = append(probes, NodeID(r.Intn(topo.N())))
			}
			for _, d := range probes {
				got, want := rel.inCone(topo.Nodes, row, d), topo.InCustomerTree(a, d)
				if got != want {
					t.Fatalf("topology %d: cone(%d) contains %d = %v, DFS says %v", k, a, d, got, want)
				}
				seen[b2i(len(topo.Nodes[d].Customers) == 0)][b2i(want)]++
			}
		}
	}
	if seen[0][0] == 0 || seen[0][1] == 0 || seen[1][0] == 0 || seen[1][1] == 0 {
		t.Fatalf("a branch went unprobed: [stub][in cone] counts %v", seen)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peerLink is a copy of a valid topology with one peering link a-b added.
type peerLink struct {
	topo *Topology
	a, b NodeID
}

// peerLinkCorruptions returns count copies of the valid topo, each with one
// peering link added between two non-C nodes that share a region and are not
// linked: in half of them from a node with customers down a walk of one to
// three customer steps, in the rest between uniform nodes. A copy shares
// topo's lists except the two endpoints' peer lists.
func peerLinkCorruptions(topo *Topology, r *rng.Source, count int) []peerLink {
	var transit []NodeID
	for i := range topo.Nodes {
		if len(topo.Nodes[i].Customers) > 0 {
			transit = append(transit, NodeID(i))
		}
	}
	out := make([]peerLink, 0, count)
	for len(out) < count {
		a := NodeID(r.Intn(topo.N()))
		b := NodeID(r.Intn(topo.N()))
		if len(out)%2 == 0 {
			a = transit[r.Intn(len(transit))]
			b = a
			for steps := 1 + r.Intn(3); steps > 0 && len(topo.Nodes[b].Customers) > 0; steps-- {
				cs := topo.Nodes[b].Customers
				b = cs[r.Intn(len(cs))]
			}
		}
		if a == b || topo.Nodes[a].Type == C || topo.Nodes[b].Type == C ||
			!topo.Nodes[a].Regions.Overlaps(topo.Nodes[b].Regions) || topo.Relation(a, b) != NotConnected {
			continue
		}
		c := &Topology{NumRegions: topo.NumRegions, Nodes: slices.Clone(topo.Nodes)}
		c.Nodes[a].Peers = append(slices.Clip(c.Nodes[a].Peers), b)
		c.Nodes[b].Peers = append(slices.Clip(c.Nodes[b].Peers), a)
		out = append(out, peerLink{c, a, b})
	}
	return out
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
	coneCases, peerCases, peerRejected := 0, 0, 0
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
		// Such a link keeps every other rule passing and is the only one that
		// can break the peering rule, from one end at most (the hierarchy is
		// acyclic): the reference verdict is two InCustomerTree calls. Every
		// 16th case also runs the whole reference.
		for j, pl := range peerLinkCorruptions(topo, r, 400) {
			label := fmt.Sprintf("topology %d peer link %d-%d", k, pl.a, pl.b)
			if j%16 == 0 {
				sameVerdict(t, label, pl.topo)
			}
			want := "<nil>"
			for _, e := range [][2]NodeID{{pl.a, pl.b}, {pl.b, pl.a}} {
				if pl.topo.InCustomerTree(e[0], e[1]) {
					want = fmt.Sprintf("topology: node %d peers with %d inside its customer tree", e[0], e[1])
				}
			}
			if got := fmt.Sprint(pl.topo.Validate()); got != want {
				t.Fatalf("%s: Validate = %q, reference = %q", label, got, want)
			}
			peerCases++
			if want != "<nil>" {
				peerRejected++
			}
		}
	}
	if coneCases == 0 {
		t.Fatal("no topology offered a peer-inside-cone corruption")
	}
	t.Logf("%d of %d peer-link corruptions rejected", peerRejected, peerCases)
	if peerRejected == 0 || peerRejected == peerCases {
		t.Fatalf("%d of %d peer-link corruptions rejected; want some of both verdicts", peerRejected, peerCases)
	}
}

// edgeKey is the canonical encoding of the unordered pair {a, b}.
func edgeKey(a, b NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func identity(n int) []NodeID {
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	return perm
}
