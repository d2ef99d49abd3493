package topology

import "fmt"

// CheckMRelation rebuilds the generator's M relation over t's transit
// hierarchy and holds every answer it gives to customerCones: each M node's
// relation row against every M node, and providesTo for every (CP, M)
// pair. The peering phases add no transit link, so the relation of a
// finished topology is the one its generation and growth steps used.
func CheckMRelation(t *Topology) error {
	g := &builder{topo: t}
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
	cones := customerCones(t)
	for k, a := range g.mIDs {
		row := g.relRow(k)
		if tail := uint(len(g.mIDs)) & 63; tail != 0 && row[len(row)-1]>>tail != 0 {
			return fmt.Errorf("M node %d: relation row has bits past the last M index", a)
		}
		for j, b := range g.mIDs {
			got := row[j>>6]&(1<<(uint(j)&63)) != 0
			if want := cones[a].contains(b) || cones[b].contains(a); got != want {
				return fmt.Errorf("M nodes %d, %d: relation says %v, customer cones %v", a, b, got, want)
			}
		}
	}
	for _, a := range cpIDs {
		for _, c := range g.mIDs {
			if got, want := g.providesTo(c, a), cones[c].contains(a); got != want {
				return fmt.Errorf("CP %d, M %d: providesTo says %v, customer cones %v", a, c, got, want)
			}
		}
	}
	return nil
}
