package topology

import "fmt"

// CheckMRelation rebuilds the generator's M relation over t's transit
// hierarchy and holds every answer it gives to a plain dense customer cone
// per node: each M node's relation row against every M node, each CP's
// transitMProviders bitset against every M node, and each M node's
// peerExclusions set against a direct computation from the cones and
// neighbor lists. The peering phases add no transit link, so the relation of
// a finished topology is the one its generation and growth steps used.
func CheckMRelation(t *Topology) error {
	g := &builder{p: Params{Regions: t.NumRegions}, topo: t}
	var cpIDs []NodeID
	for i := range t.Nodes {
		switch t.Nodes[i].Type {
		case M:
			g.mIDs = append(g.mIDs, NodeID(i))
		case CP:
			cpIDs = append(cpIDs, NodeID(i))
		}
	}
	g.rel = newRelation(t.Nodes, g.mIDs)
	g.prepareMPeeringScratch()
	has := func(set []uint64, j int) bool { return set[j>>6]&(1<<(uint(j)&63)) != 0 }
	cones := denseCones(t)
	in := func(a, d NodeID) bool { return has(cones[a], int(d)) }
	for k, a := range g.mIDs {
		row := g.rel.row(k)
		if tail := uint(len(g.mIDs)) & 63; tail != 0 && row[len(row)-1]>>tail != 0 {
			return fmt.Errorf("M node %d: relation row has bits past the last M index", a)
		}
		for j, b := range g.mIDs {
			if got, want := has(row, j), in(a, b) || in(b, a); got != want {
				return fmt.Errorf("M nodes %d, %d: relation says %v, customer cones %v", a, b, got, want)
			}
		}
	}
	for _, a := range cpIDs {
		anc := g.transitMProviders(a)
		for j, c := range g.mIDs {
			if got, want := has(anc, j), in(c, a); got != want {
				return fmt.Errorf("CP %d, M %d: transitMProviders says %v, customer cones %v", a, c, got, want)
			}
		}
	}
	for k, a := range g.mIDs {
		nd := &t.Nodes[a]
		nbr := map[NodeID]bool{}
		for _, list := range [][]NodeID{nd.Providers, nd.Customers, nd.Peers} {
			for _, x := range list {
				nbr[x] = true
			}
		}
		x := g.peerExclusions(k)
		for j, b := range g.mIDs {
			want := b == a || t.Nodes[b].Regions.Overlaps(nd.Regions) &&
				(nbr[b] || in(a, b) || in(b, a))
			if got := has(x, j); got != want {
				return fmt.Errorf("M nodes %d, %d: peerExclusions says %v, direct computation %v", a, b, got, want)
			}
		}
	}
	return nil
}

// denseCones is the reference customer cone of every node of t: a bitset
// over node ID, the union of the node's customers and their cones, built by a
// memoized descent. The provider relation must be acyclic.
func denseCones(t *Topology) [][]uint64 {
	w := (t.N() + 63) / 64
	cones := make([][]uint64, t.N())
	var build func(a NodeID) []uint64
	build = func(a NodeID) []uint64 {
		if cones[a] == nil {
			c := make([]uint64, w)
			for _, x := range t.Nodes[a].Customers {
				for i, v := range build(x) {
					c[i] |= v
				}
				c[x>>6] |= 1 << (uint(x) & 63)
			}
			cones[a] = c
		}
		return cones[a]
	}
	for i := range t.Nodes {
		build(NodeID(i))
	}
	return cones
}
