package topology

import "fmt"

// CheckMRelation rebuilds the generator's M relation over t's transit
// hierarchy and holds every answer it gives to customerCones: each M node's
// relation row against every M node, each CP's transitMProviders bitset
// against every M node, and each M node's peerExclusions set against a
// direct computation from the cones and neighbor lists. The peering phases
// add no transit link, so the relation of a finished topology is the one
// its generation and growth steps used.
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
	g.buildMRelation()
	g.prepareMPeeringScratch()
	cones := customerCones(t)
	has := func(set []uint64, j int) bool { return set[j>>6]&(1<<(uint(j)&63)) != 0 }
	for k, a := range g.mIDs {
		row := g.relRow(k)
		if tail := uint(len(g.mIDs)) & 63; tail != 0 && row[len(row)-1]>>tail != 0 {
			return fmt.Errorf("M node %d: relation row has bits past the last M index", a)
		}
		for j, b := range g.mIDs {
			if got, want := has(row, j), cones[a].contains(b) || cones[b].contains(a); got != want {
				return fmt.Errorf("M nodes %d, %d: relation says %v, customer cones %v", a, b, got, want)
			}
		}
	}
	for _, a := range cpIDs {
		anc := g.transitMProviders(a)
		for j, c := range g.mIDs {
			if got, want := has(anc, j), cones[c].contains(a); got != want {
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
				(nbr[b] || cones[a].contains(b) || cones[b].contains(a))
			if got := has(x, j); got != want {
				return fmt.Errorf("M nodes %d, %d: peerExclusions says %v, direct computation %v", a, b, got, want)
			}
		}
	}
	return nil
}
