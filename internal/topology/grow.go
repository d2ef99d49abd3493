package topology

import (
	"fmt"

	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
)

// Grow extends an existing topology to the larger node mix of p without
// regenerating it: every node and link of t is preserved (same IDs, same
// relations), and only the delta nodes are attached, through the exact
// generation phases Generate runs — delta M nodes one at a time with
// preferential attachment, then delta CP and C stubs, then peering links for
// the new M and CP nodes. Existing nodes keep their peering (they still
// attract new links as candidates, so preferential attachment keeps acting
// on the grown part).
//
// Generate is Grow from the tier-1 clique. Beyond it, Grow lets one structure
// grown n → n′ share its prefix: the benchmark's 50k cell grows a validated
// 10k base, and the facade exposes it as GrowTopology. Provider acyclicity
// holds because a new node's providers are always chosen among nodes that
// already exist, so every provider edge points from an earlier-created node
// to a later one.
//
// Requirements, beyond p.Validate(): the region count and tier-1 clique are
// frozen (p.Regions and p.NT must match t), and the per-type counts must be
// non-decreasing. The returned topology is fresh — t is never mutated, so
// engines holding it (and its cached CSR) stay valid.
func Grow(t *Topology, p Params) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := t.CountByType()
	switch {
	case p.Regions != t.NumRegions:
		return nil, fmt.Errorf("topology: grow cannot change regions (%d -> %d)", t.NumRegions, p.Regions)
	case p.NT != c[T]:
		return nil, fmt.Errorf("topology: grow cannot change the tier-1 clique (NT %d -> %d)", c[T], p.NT)
	case p.NM < c[M] || p.NCP < c[CP] || p.NC < c[C]:
		return nil, fmt.Errorf("topology: grow requires non-decreasing node counts (M %d->%d, CP %d->%d, C %d->%d)",
			c[M], p.NM, c[CP], p.NCP, c[C], p.NC)
	}
	pt := startPhases()
	return grow(cloneTopology(t), p, &pt, t.N(), 0), nil
}

// grow runs the generation phases on t, which it owns and extends in place:
// delta M nodes, delta stubs, the relation, then peering for the new M and
// CP nodes. The builder's incremental state is reconstructed from t. The
// probes record the call's work: the nodes past the first inherited, and the
// links added here plus links, those the caller made (Generate's clique).
func grow(t *Topology, p Params, pt *phaseTimer, inherited, links int) *Topology {
	c := t.CountByType()
	g := &builder{p: p, r: rng.New(p.Seed), topo: t, links: links}
	g.topo.Seed = p.Seed // provenance: the seed of the latest growth step
	// Preferential-attachment degree bases and the per-type ID lists in
	// creation order (node IDs are assigned in creation order, so an ID-order
	// scan recovers it — also after a previous Grow).
	for i := range g.topo.Nodes {
		nd := &g.topo.Nodes[i]
		g.transitDegree = append(g.transitDegree, len(nd.Providers)+len(nd.Customers))
		g.peerDegree = append(g.peerDegree, len(nd.Peers))
		switch nd.Type {
		case M:
			g.mIDs = append(g.mIDs, nd.ID)
		case CP:
			g.cpIDs = append(g.cpIDs, nd.ID)
		}
	}
	g.peerFromM, g.peerFromCP = len(g.mIDs), len(g.cpIDs)
	g.initSamplers()
	g.addMNodes(p.NM - c[M])
	pt.lap(obs.PhaseMNodes)
	g.addStubs(CP, p.NCP-c[CP], p.DCP, p.TCP, p.CPSpread)
	g.addStubs(C, p.NC-c[C], p.DC, p.TC, 0)
	pt.lap(obs.PhaseStubs)
	g.rel = newRelation(g.topo.Nodes, g.mIDs)
	pt.lap(obs.PhaseCones)
	g.addMPeering()
	pt.lap(obs.PhaseMPeering)
	g.addCPPeering()
	pt.lap(obs.PhaseCPPeering)
	pt.record(g.topo.N()-inherited, g.links)
	return g.topo
}

// MustGrow is Grow for known-valid inputs; it panics on error. Intended for
// tests and benchmarks.
func MustGrow(t *Topology, p Params) *Topology {
	nt, err := Grow(t, p)
	if err != nil {
		panic(fmt.Sprintf("topology: %v", err))
	}
	return nt
}

// cloneTopology deep-copies t's graph into a fresh Topology (fresh neighbor
// slices, cold CSR cache). A Topology embeds a sync.Once and is shared by
// pointer, so growth must build a new value rather than copy or mutate.
func cloneTopology(t *Topology) *Topology {
	nt := &Topology{
		Nodes:      make([]Node, len(t.Nodes)),
		NumRegions: t.NumRegions,
		Seed:       t.Seed,
	}
	for i := range t.Nodes {
		src := &t.Nodes[i]
		nt.Nodes[i] = Node{
			ID:        src.ID,
			Type:      src.Type,
			Regions:   src.Regions,
			Providers: append([]NodeID(nil), src.Providers...),
			Customers: append([]NodeID(nil), src.Customers...),
			Peers:     append([]NodeID(nil), src.Peers...),
		}
	}
	return nt
}
