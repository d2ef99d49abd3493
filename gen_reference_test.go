package bgpchurn

// The reference topology generator: the paper's §3 growth procedure as first
// written, kept as the executable specification of GenerateTopology and
// GrowTopology. Every preferential-attachment pick scans its whole candidate
// class twice (total weight, then selection), every customer cone is a dense
// n-bit set built by DFS, and CP peering filters the full candidate pool —
// O(n²) time and O(n²/64) bytes, the costs internal/topology's Fenwick
// samplers, shared cones and region buckets remove. Those must reproduce this
// file draw for draw: one Intn per pick over the same total, the same pick,
// hence the same Topology down to neighbor-list order (gen_equiv_test.go
// compares the two). The reference shares nothing with internal/topology but
// its exported types and Params.Validate.

import (
	"bgpchurn/internal/rng"
	"bgpchurn/internal/topology"
)

// refBuilder is the reference generator's state.
type refBuilder struct {
	p    TopologyParams
	r    *rng.Source
	topo *Topology
	// edges holds every existing link keyed by refEdgeKey, to keep the
	// graph simple.
	edges map[uint64]struct{}
	// transitDegree (providers + customers) and peerDegree are the
	// preferential-attachment weight bases.
	transitDegree, peerDegree []int
	// mIDs and cpIDs are the M and CP nodes in creation order.
	mIDs, cpIDs []NodeID
	// cones[v] is v's customer cone as a dense bitset over node IDs, built
	// for M and CP nodes once the transit phase is done.
	cones [][]uint64
	// peerFromM/peerFromCP are the first indices of mIDs/cpIDs the peering
	// phase draws links for: zero when generating, past the pre-existing
	// nodes when growing.
	peerFromM, peerFromCP int
}

// referenceGenerate is GenerateTopology by linear scan.
func referenceGenerate(p TopologyParams) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &refBuilder{
		p:     p,
		r:     rng.New(p.Seed),
		topo:  &Topology{NumRegions: p.Regions, Seed: p.Seed},
		edges: make(map[uint64]struct{}),
	}
	g.addTClique()
	g.addMNodes(p.NM)
	g.addStubs(CP, p.NCP, p.DCP, p.TCP, p.CPSpread)
	g.addStubs(C, p.NC, p.DC, p.TC, 0)
	g.addPeering()
	return g.topo, nil
}

// referenceGrow is GrowTopology by linear scan, for parameters Grow accepts.
// The degree bases, link set and per-type ID lists are reconstructed from t;
// node IDs are assigned in creation order, so an ID-order scan recovers it.
func referenceGrow(t *Topology, p TopologyParams) *Topology {
	g := &refBuilder{
		p:     p,
		r:     rng.New(p.Seed),
		topo:  &Topology{NumRegions: t.NumRegions, Seed: p.Seed},
		edges: make(map[uint64]struct{}),
	}
	for _, nd := range t.Nodes {
		nd.Providers = append([]NodeID(nil), nd.Providers...)
		nd.Customers = append([]NodeID(nil), nd.Customers...)
		nd.Peers = append([]NodeID(nil), nd.Peers...)
		g.topo.Nodes = append(g.topo.Nodes, nd)
		g.transitDegree = append(g.transitDegree, len(nd.Providers)+len(nd.Customers))
		g.peerDegree = append(g.peerDegree, len(nd.Peers))
		switch nd.Type {
		case M:
			g.mIDs = append(g.mIDs, nd.ID)
		case CP:
			g.cpIDs = append(g.cpIDs, nd.ID)
		}
		for _, v := range nd.Customers {
			g.edges[refEdgeKey(nd.ID, v)] = struct{}{}
		}
		for _, v := range nd.Peers {
			g.edges[refEdgeKey(nd.ID, v)] = struct{}{}
		}
	}
	g.peerFromM, g.peerFromCP = len(g.mIDs), len(g.cpIDs)
	c := t.CountByType()
	g.addMNodes(p.NM - c[M])
	g.addStubs(CP, p.NCP-c[CP], p.DCP, p.TCP, p.CPSpread)
	g.addStubs(C, p.NC-c[C], p.DC, p.TC, 0)
	g.addPeering()
	return g.topo
}

func refEdgeKey(a, b NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (g *refBuilder) adjacent(a, b NodeID) bool {
	_, ok := g.edges[refEdgeKey(a, b)]
	return ok
}

func (g *refBuilder) newNode(typ NodeType, regions topology.RegionSet) NodeID {
	id := NodeID(len(g.topo.Nodes))
	g.topo.Nodes = append(g.topo.Nodes, topology.Node{ID: id, Type: typ, Regions: regions})
	g.transitDegree = append(g.transitDegree, 0)
	g.peerDegree = append(g.peerDegree, 0)
	return id
}

// pickRegions draws a new node's regions: one uniform region, plus a second
// distinct one with probability spread.
func (g *refBuilder) pickRegions(spread float64) topology.RegionSet {
	first := g.r.Intn(g.p.Regions)
	s := topology.RegionSet(0).Add(first)
	if g.p.Regions > 1 && g.r.Bernoulli(spread) {
		second := g.r.Intn(g.p.Regions - 1)
		if second >= first {
			second++
		}
		s = s.Add(second)
	}
	return s
}

func (g *refBuilder) addTransitLink(provider, customer NodeID) {
	g.topo.Nodes[provider].Customers = append(g.topo.Nodes[provider].Customers, customer)
	g.topo.Nodes[customer].Providers = append(g.topo.Nodes[customer].Providers, provider)
	g.edges[refEdgeKey(provider, customer)] = struct{}{}
	g.transitDegree[provider]++
	g.transitDegree[customer]++
}

func (g *refBuilder) addPeerLink(a, b NodeID) {
	g.topo.Nodes[a].Peers = append(g.topo.Nodes[a].Peers, b)
	g.topo.Nodes[b].Peers = append(g.topo.Nodes[b].Peers, a)
	g.edges[refEdgeKey(a, b)] = struct{}{}
	g.peerDegree[a]++
	g.peerDegree[b]++
}

// addTClique creates the tier-1 nodes, present in every region and fully
// meshed with peering links.
func (g *refBuilder) addTClique() {
	var all topology.RegionSet
	for i := 0; i < g.p.Regions; i++ {
		all = all.Add(i)
	}
	for i := 0; i < g.p.NT; i++ {
		g.newNode(T, all)
	}
	for a := NodeID(0); int(a) < g.p.NT; a++ {
		for b := a + 1; int(b) < g.p.NT; b++ {
			g.addPeerLink(a, b)
		}
	}
}

// addMNodes adds count M nodes one at a time, each attaching to its
// providers before the next one exists.
func (g *refBuilder) addMNodes(count int) {
	for i := 0; i < count; i++ {
		id := g.newNode(M, g.pickRegions(g.p.MSpread))
		g.mIDs = append(g.mIDs, id)
		g.connectProviders(id, g.p.DM, g.p.TM, g.p.MaxTProvidersPerM, g.p.MaxMProviders)
	}
}

// addStubs adds count CP or C nodes with multihoming degree ~mhd and
// T-provider probability probT.
func (g *refBuilder) addStubs(typ NodeType, count int, mhd, probT, spread float64) {
	for i := 0; i < count; i++ {
		id := g.newNode(typ, g.pickRegions(spread))
		if typ == CP {
			g.cpIDs = append(g.cpIDs, id)
		}
		g.connectProviders(id, mhd, probT, topology.Unlimited, g.p.MaxMProviders)
	}
}

// connectProviders attaches id to ~mhd providers: each slot is a T node with
// probability probT and an M node otherwise, within the per-type caps; no
// eligible M node falls back to a T node.
func (g *refBuilder) connectProviders(id NodeID, mhd, probT float64, maxT, maxM int) {
	want := g.r.CountAroundMean(mhd, 1)
	nT, nM := 0, 0
	for s := 0; s < want; s++ {
		pickT := g.r.Bernoulli(probT)
		if maxT != topology.Unlimited && nT >= maxT {
			pickT = false
		}
		if maxM != topology.Unlimited && nM >= maxM {
			if maxT != topology.Unlimited && nT >= maxT {
				break
			}
			pickT = true
		}
		var prov NodeID
		if pickT {
			prov = g.pickTProvider(id)
		} else {
			prov = g.pickMProvider(id)
			if prov == topology.None {
				if maxT != topology.Unlimited && nT >= maxT {
					continue
				}
				prov = g.pickTProvider(id)
			}
		}
		if prov == topology.None {
			continue
		}
		if g.topo.Nodes[prov].Type == T {
			nT++
		} else {
			nM++
		}
		g.addTransitLink(prov, id)
	}
}

// pickTProvider draws a tier-1 node not yet adjacent to id, by preferential
// attachment on transit degree.
func (g *refBuilder) pickTProvider(id NodeID) NodeID {
	return g.weightedPick(func(yield func(NodeID, int)) {
		for t := NodeID(0); int(t) < g.p.NT; t++ {
			if !g.adjacent(t, id) {
				yield(t, g.transitDegree[t]+1)
			}
		}
	})
}

// pickMProvider draws an M node other than id, sharing a region with it and
// not yet adjacent, by preferential attachment on transit degree.
func (g *refBuilder) pickMProvider(id NodeID) NodeID {
	regions := g.topo.Nodes[id].Regions
	return g.weightedPick(func(yield func(NodeID, int)) {
		for _, m := range g.mIDs {
			if m != id && g.topo.Nodes[m].Regions.Overlaps(regions) && !g.adjacent(m, id) {
				yield(m, g.transitDegree[m]+1)
			}
		}
	})
}

// weightedPick draws one candidate with probability proportional to its
// weight: one Intn over the total weight, then the first candidate, in
// enumeration order, at which the running sum exceeds the target. Returns
// None without drawing when the candidate set is empty.
func (g *refBuilder) weightedPick(enumerate func(yield func(NodeID, int))) NodeID {
	total := 0
	enumerate(func(_ NodeID, w int) { total += w })
	if total == 0 {
		return topology.None
	}
	target := g.r.Intn(total)
	chosen, acc := topology.None, 0
	enumerate(func(id NodeID, w int) {
		if chosen != topology.None {
			return
		}
		if acc += w; target < acc {
			chosen = id
		}
	})
	return chosen
}

// addPeering runs both peering phases over the finished transit hierarchy.
func (g *refBuilder) addPeering() {
	g.buildCones()
	g.addMPeering()
	for _, a := range g.cpIDs[g.peerFromCP:] {
		g.addUniformPeers(a, g.mIDs, g.p.PCPM)
		g.addUniformPeers(a, g.cpIDs, g.p.PCPCP)
	}
}

// buildCones computes the customer cone of every M and CP node by DFS.
func (g *refBuilder) buildCones() {
	n := len(g.topo.Nodes)
	g.cones = make([][]uint64, n)
	var stack []NodeID
	for i, nd := range g.topo.Nodes {
		if nd.Type != M && nd.Type != CP {
			continue
		}
		bits := make([]uint64, (n+63)/64)
		stack = append(stack[:0], nd.Customers...)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if bits[u/64]&(1<<(uint(u)%64)) != 0 {
				continue
			}
			bits[u/64] |= 1 << (uint(u) % 64)
			stack = append(stack, g.topo.Nodes[u].Customers...)
		}
		g.cones[i] = bits
	}
}

// inTree reports whether d is in a's customer cone.
func (g *refBuilder) inTree(a, d NodeID) bool {
	bits := g.cones[a]
	return bits != nil && bits[d/64]&(1<<(uint(d)%64)) != 0
}

// peeringAllowed: distinct, not yet linked, sharing a region, and neither in
// the other's customer tree.
func (g *refBuilder) peeringAllowed(a, b NodeID) bool {
	return a != b && !g.adjacent(a, b) &&
		g.topo.Nodes[a].Regions.Overlaps(g.topo.Nodes[b].Regions) &&
		!g.inTree(a, b) && !g.inTree(b, a)
}

// addMPeering gives each M node from peerFromM on ~PM peers among the M
// nodes, by preferential attachment on peering degree.
func (g *refBuilder) addMPeering() {
	for _, a := range g.mIDs[g.peerFromM:] {
		want := g.r.CountAroundMean(g.p.PM, 0)
		for s := 0; s < want; s++ {
			b := g.weightedPick(func(yield func(NodeID, int)) {
				for _, m := range g.mIDs {
					if g.peeringAllowed(a, m) {
						yield(m, g.peerDegree[m]+1)
					}
				}
			})
			if b == topology.None {
				break
			}
			g.addPeerLink(a, b)
		}
	}
}

// addUniformPeers links a to ~mean candidates of pool drawn uniformly
// without replacement (partial shuffle) from those eligible at the start,
// re-checking each pick against the links made since.
func (g *refBuilder) addUniformPeers(a NodeID, pool []NodeID, mean float64) {
	want := g.r.CountAroundMean(mean, 0)
	if want == 0 {
		return
	}
	var eligible []NodeID
	for _, c := range pool {
		if g.peeringAllowed(a, c) {
			eligible = append(eligible, c)
		}
	}
	for s := 0; s < want && len(eligible) > 0; s++ {
		i := g.r.Intn(len(eligible))
		b := eligible[i]
		eligible[i] = eligible[len(eligible)-1]
		eligible = eligible[:len(eligible)-1]
		if g.peeringAllowed(a, b) {
			g.addPeerLink(a, b)
		}
	}
}
