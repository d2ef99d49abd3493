package topology

import (
	"fmt"
	"time"

	"bgpchurn/internal/rng"

	"bgpchurn/internal/obs"
)

// Generate builds a topology per the paper's two-phase procedure: first the
// T clique and the transit hierarchy top-down (T, then M one at a time,
// then the stubs), then the peering links. All provider and M-M peer
// selections use preferential attachment; CP peering is uniform. The
// invariants enforced are: no provider loops (guaranteed by construction:
// providers are always chosen among earlier nodes), region-constrained
// connectivity, simple graph (no parallel links), and no peering between a
// node and a member of its customer tree.
//
// Selection runs on the Fenwick-indexed samplers (sampler.go), the shared
// customer cones (cones.go) and region-bucketed peering pools: every pick
// consumes exactly one Intn over the same total as a linear scan of the
// candidates would, so the output is byte-identical to the O(n²) reference
// generator kept as the executable specification at the module root
// (gen_reference_test.go; gen_equiv_test.go compares the two).
func Generate(p Params) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Probes are resolved up front so the uninstrumented path pays one
	// atomic load per call and never touches the wall clock.
	var start time.Time
	var pt phaseTimer
	probes := genProbes.Load()
	if probes != nil {
		start = time.Now()
		pt.enabled, pt.last = true, start
	}
	g := &builder{
		p:     p,
		r:     rng.New(p.Seed),
		topo:  &Topology{NumRegions: p.Regions, Seed: p.Seed},
		edges: make(map[uint64]struct{}, p.N*4),
	}
	g.addTClique()
	g.initSamplers()
	pt.lap(obs.PhaseClique)
	g.addMNodes(p.NM)
	pt.lap(obs.PhaseMNodes)
	g.addStubs(CP, p.NCP, p.DCP, p.TCP, p.CPSpread)
	g.addStubs(C, p.NC, p.DC, p.TC, 0)
	pt.lap(obs.PhaseStubs)
	g.prepareCones()
	pt.lap(obs.PhaseCones)
	g.addMPeering()
	pt.lap(obs.PhaseMPeering)
	g.addCPPeering()
	pt.lap(obs.PhaseCPPeering)
	if probes != nil {
		instrumentGen(probes, start, g.topo.N(), len(g.edges), &pt)
	}
	return g.topo, nil
}

// MustGenerate is Generate for known-valid parameters; it panics on error.
// Intended for tests and benchmarks.
func MustGenerate(p Params) *Topology {
	t, err := Generate(p)
	if err != nil {
		panic(fmt.Sprintf("topology: %v", err))
	}
	return t
}

// samplers bundles the accelerated selection structures. Built by
// initSamplers once the tier-1 clique (Generate) or the cloned prefix (Grow)
// is in place; nil while the clique is being meshed.
type samplers struct {
	// transitT/transitM index the provider classes by transitDegree+1 for
	// the preferential-attachment picks of connectProviders.
	transitT *paSampler
	transitM *paSampler
	// peerM indexes M nodes by peerDegree+1; built at the start of the M-M
	// peering phase (both phases' degree bases are frozen until then).
	peerM *paSampler
}

type builder struct {
	p    Params
	r    *rng.Source
	topo *Topology
	// edges holds every existing link (transit or peer) keyed by the
	// canonical pair encoding, to keep the graph simple.
	edges map[uint64]struct{}
	// transitDegree is the preferential-attachment weight basis for
	// provider selection (providers + customers, peers excluded).
	transitDegree []int
	// peerDegree is the PA weight basis for M-M peer selection.
	peerDegree []int
	// mIDs caches the IDs of M nodes in creation order.
	mIDs []NodeID
	// cpIDs caches the IDs of CP nodes in creation order.
	cpIDs []NodeID
	// samp holds the Fenwick samplers.
	samp *samplers
	// coneSets are the shared size-adaptive customer cones, built once
	// after the transit phase.
	coneSets []coneSet
	// ancMark/ancEpoch/ancStack are the scratch state of the transitive-
	// provider walk in excludeConeRelated; mMaskR, qMask and mProv are the
	// phase scratch built by prepareMPeeringScratch (per-region M-membership
	// bitmasks, the per-round OR of them, and M-only provider lists).
	ancMark  []uint32
	ancEpoch uint32
	ancStack []NodeID
	mMaskR   [][]uint64
	qMask    []uint64
	mProv    [][]NodeID
	// candScratch/eligScratch are reused across addUniformPeers calls.
	candScratch []NodeID
	eligScratch []NodeID
	// peerFromM/peerFromCP are the first indices of mIDs/cpIDs that the
	// peering phase draws links *for*. Generate leaves them at zero (every
	// node peers); Grow sets them past the pre-existing nodes, whose peering
	// is already in place — existing nodes still serve as candidates.
	peerFromM  int
	peerFromCP int
}

// initSamplers builds the provider-class samplers over the nodes that exist
// so far: the full T clique, and (on the Grow path) the pre-existing M
// nodes with their reconstructed degrees. Later M nodes are inserted by
// addMNodes as they finish their own provider round.
func (g *builder) initSamplers() {
	s := &samplers{
		transitT: newPASampler(g.p.N, g.p.NT),
		transitM: newPASampler(g.p.N, g.p.NM),
	}
	for t := NodeID(0); int(t) < g.p.NT; t++ {
		s.transitT.insert(t, g.topo.Nodes[t].Regions, int64(g.transitDegree[t]+1))
	}
	for _, m := range g.mIDs {
		s.transitM.insert(m, g.topo.Nodes[m].Regions, int64(g.transitDegree[m]+1))
	}
	g.samp = s
}

// inTree reports whether d is in a's precomputed customer cone.
func (g *builder) inTree(a, d NodeID) bool { return g.coneSets[a].contains(d) }

func edgeKey(a, b NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (g *builder) adjacent(a, b NodeID) bool {
	_, ok := g.edges[edgeKey(a, b)]
	return ok
}

func (g *builder) newNode(typ NodeType, regions RegionSet) NodeID {
	id := NodeID(len(g.topo.Nodes))
	g.topo.Nodes = append(g.topo.Nodes, Node{ID: id, Type: typ, Regions: regions})
	g.transitDegree = append(g.transitDegree, 0)
	g.peerDegree = append(g.peerDegree, 0)
	return id
}

func (g *builder) allRegions() RegionSet {
	var s RegionSet
	for i := 0; i < g.p.Regions; i++ {
		s = s.Add(i)
	}
	return s
}

// pickRegions draws the region set for a new node: one uniform region, plus
// a second distinct one with probability spread.
func (g *builder) pickRegions(spread float64) RegionSet {
	first := g.r.Intn(g.p.Regions)
	s := RegionSet(0).Add(first)
	if g.p.Regions > 1 && g.r.Bernoulli(spread) {
		second := g.r.Intn(g.p.Regions - 1)
		if second >= first {
			second++
		}
		s = s.Add(second)
	}
	return s
}

func (g *builder) addTransitLink(provider, customer NodeID) {
	g.topo.Nodes[provider].Customers = append(g.topo.Nodes[provider].Customers, customer)
	g.topo.Nodes[customer].Providers = append(g.topo.Nodes[customer].Providers, provider)
	g.edges[edgeKey(provider, customer)] = struct{}{}
	g.transitDegree[provider]++
	g.transitDegree[customer]++
	// Each endpoint lives in at most one of the two provider samplers;
	// addWeight ignores non-members, so both are told unconditionally.
	g.samp.transitT.addWeight(provider, 1)
	g.samp.transitM.addWeight(provider, 1)
	g.samp.transitT.addWeight(customer, 1)
	g.samp.transitM.addWeight(customer, 1)
}

func (g *builder) addPeerLink(a, b NodeID) {
	g.topo.Nodes[a].Peers = append(g.topo.Nodes[a].Peers, b)
	g.topo.Nodes[b].Peers = append(g.topo.Nodes[b].Peers, a)
	g.edges[edgeKey(a, b)] = struct{}{}
	g.peerDegree[a]++
	g.peerDegree[b]++
	// The tier-1 clique is meshed before initSamplers, and the M-peering
	// sampler exists only from that phase on.
	if g.samp != nil && g.samp.peerM != nil {
		g.samp.peerM.addWeight(a, 1)
		g.samp.peerM.addWeight(b, 1)
	}
}

// addTClique creates the tier-1 nodes, present in all regions and fully
// meshed with peering links.
func (g *builder) addTClique() {
	all := g.allRegions()
	for i := 0; i < g.p.NT; i++ {
		g.newNode(T, all)
	}
	for a := NodeID(0); int(a) < g.p.NT; a++ {
		for b := a + 1; int(b) < g.p.NT; b++ {
			g.addPeerLink(a, b)
		}
	}
}

// addMNodes adds count mid-level providers one at a time. Each picks an
// average of DM providers among T nodes (probability TM per slot) and
// already-present M nodes, by preferential attachment on transit degree.
func (g *builder) addMNodes(count int) {
	for i := 0; i < count; i++ {
		id := g.newNode(M, g.pickRegions(g.p.MSpread))
		g.mIDs = append(g.mIDs, id)
		g.connectProviders(id, g.p.DM, g.p.TM, g.p.MaxTProvidersPerM, g.p.MaxMProviders)
		// Insert after the node's own provider round: a node is never its
		// own provider candidate, and one absent from the sampler is
		// excluded for free.
		g.samp.transitM.insert(id, g.topo.Nodes[id].Regions, int64(g.transitDegree[id]+1))
	}
}

// addStubs adds NCP or NC stub nodes with the given multihoming degree and
// T-provider probability.
func (g *builder) addStubs(typ NodeType, count int, mhd, probT, spread float64) {
	for i := 0; i < count; i++ {
		id := g.newNode(typ, g.pickRegions(spread))
		if typ == CP {
			g.cpIDs = append(g.cpIDs, id)
		}
		g.connectProviders(id, mhd, probT, Unlimited, g.p.MaxMProviders)
	}
}

// connectProviders attaches the new node to ~mhd providers. Each slot is a
// T node with probability probT and an M node otherwise, subject to the
// per-type caps; an empty or exhausted M candidate set falls back to T
// (tier-1 nodes are present in every region, so the graph stays connected).
//
// Neighbor exclusion is incremental: id is brand new, so its only neighbors
// are the providers accepted earlier in this same round — each accepted
// provider is excluded from its sampler, and restoreAll reinstates
// everything when the round ends.
func (g *builder) connectProviders(id NodeID, mhd, probT float64, maxT, maxM int) {
	want := g.r.CountAroundMean(mhd, 1)
	nT, nM := 0, 0
	for s := 0; s < want; s++ {
		pickT := g.r.Bernoulli(probT)
		if maxT != Unlimited && nT >= maxT {
			pickT = false
		}
		if maxM != Unlimited && nM >= maxM {
			if maxT != Unlimited && nT >= maxT {
				break // both classes capped: no further providers possible
			}
			pickT = true
		}
		var prov NodeID
		if pickT {
			prov = g.pickTProvider(id)
		} else {
			prov = g.pickMProvider(id)
			if prov == None {
				if maxT != Unlimited && nT >= maxT {
					continue
				}
				prov = g.pickTProvider(id) // fall back to tier-1
			}
		}
		if prov == None {
			continue
		}
		if g.topo.Nodes[prov].Type == T {
			nT++
		} else {
			nM++
		}
		g.addTransitLink(prov, id)
		g.samp.transitT.exclude(prov)
		g.samp.transitM.exclude(prov)
	}
	g.samp.transitT.restoreAll()
	g.samp.transitM.restoreAll()
}

// pickTProvider selects a tier-1 provider by preferential attachment on
// transit degree, excluding existing neighbors of id.
func (g *builder) pickTProvider(id NodeID) NodeID {
	return g.samp.transitT.draw(g.r, g.topo.Nodes[id].Regions)
}

// pickMProvider selects an existing M provider sharing a region with id, by
// preferential attachment on transit degree.
func (g *builder) pickMProvider(id NodeID) NodeID {
	return g.samp.transitM.draw(g.r, g.topo.Nodes[id].Regions)
}

// peeringAllowed checks the peering invariants for a candidate pair:
// distinct, region-overlapping, not already linked, and neither node in the
// other's customer tree (a node never peers into its own revenue tree).
func (g *builder) peeringAllowed(a, b NodeID) bool {
	if a == b || g.adjacent(a, b) {
		return false
	}
	if !g.topo.Nodes[a].Regions.Overlaps(g.topo.Nodes[b].Regions) {
		return false
	}
	if g.inTree(a, b) || g.inTree(b, a) {
		return false
	}
	return true
}

// addMPeering gives each M node from index peerFromM on ~PM peering links
// to other M nodes chosen by preferential attachment on peering degree, on a
// peerDegree+1 Fenwick sampler. Per M node a, the peeringAllowed rejections
// are pre-excluded once — a itself, its neighbors, its cone, its transitive
// providers — then each accepted link only excludes the new peer; one round
// of exclusions serves all ~PM slots, whose draws differ only by the nodes
// linked in between.
func (g *builder) addMPeering() {
	s := newPASampler(g.p.N, len(g.mIDs))
	for _, m := range g.mIDs {
		s.insert(m, g.topo.Nodes[m].Regions, int64(g.peerDegree[m]+1))
	}
	g.samp.peerM = s
	g.prepareMPeeringScratch()
	for _, a := range g.mIDs[g.peerFromM:] {
		want := g.r.CountAroundMean(g.p.PM, 0)
		if want == 0 {
			continue
		}
		nd := &g.topo.Nodes[a]
		q := nd.Regions
		qMask := g.buildQMask(q)
		s.exclude(a)
		for _, x := range nd.Providers {
			if g.topo.Nodes[x].Regions.Overlaps(q) {
				s.exclude(x)
			}
		}
		for _, x := range nd.Customers {
			if g.topo.Nodes[x].Regions.Overlaps(q) {
				s.exclude(x)
			}
		}
		for _, x := range nd.Peers {
			if g.topo.Nodes[x].Regions.Overlaps(q) {
				s.exclude(x)
			}
		}
		g.excludeConeRelated(a, q, qMask, s)
		for k := 0; k < want; k++ {
			b := s.draw(g.r, nd.Regions)
			if b == None {
				break // no eligible peer remains for a
			}
			g.addPeerLink(a, b)
			s.exclude(b)
		}
		s.restoreAll()
	}
}

// addCPPeering gives each CP node from index peerFromCP on ~PCPM peering
// links to M nodes and ~PCPCP links to other CP nodes, selected uniformly
// within its regions.
func (g *builder) addCPPeering() {
	mb := newRegionBuckets(g.p.Regions, g.mIDs, g.topo.Nodes)
	cpb := newRegionBuckets(g.p.Regions, g.cpIDs, g.topo.Nodes)
	for _, a := range g.cpIDs[g.peerFromCP:] {
		g.addUniformPeers(a, mb, g.p.PCPM)
		g.addUniformPeers(a, cpb, g.p.PCPCP)
	}
}

// addUniformPeers links a to ~mean uniformly chosen eligible candidates of
// the bucketed pool. Only region-overlapping pool members are enumerated;
// the bucket merge yields them in pool order, so the eligible slice — and
// every Intn index into it — matches a full-pool scan exactly.
func (g *builder) addUniformPeers(a NodeID, buckets *regionBuckets, mean float64) {
	want := g.r.CountAroundMean(mean, 0)
	if want == 0 {
		return
	}
	// Collect the eligible candidates once; uniform selection without
	// replacement by partial shuffle. Bucket members already overlap a's
	// regions; adjacency is tested via epoch marks on a's neighbor lists
	// instead of a hash lookup per candidate (the lists and the edge map are
	// kept in sync, so the answers are identical).
	nd := &g.topo.Nodes[a]
	g.ancEpoch++
	if g.ancEpoch == 0 {
		for i := range g.ancMark {
			g.ancMark[i] = 0
		}
		g.ancEpoch = 1
	}
	for _, x := range nd.Providers {
		g.ancMark[x] = g.ancEpoch
	}
	for _, x := range nd.Customers {
		g.ancMark[x] = g.ancEpoch
	}
	for _, x := range nd.Peers {
		g.ancMark[x] = g.ancEpoch
	}
	g.candScratch = buckets.candidates(nd.Regions, g.candScratch[:0])
	eligible := g.eligScratch[:0]
	for _, c := range g.candScratch {
		if c == a || g.ancMark[c] == g.ancEpoch {
			continue
		}
		if g.inTree(a, c) || g.inTree(c, a) {
			continue
		}
		eligible = append(eligible, c)
	}
	g.eligScratch = eligible
	for s := 0; s < want && len(eligible) > 0; s++ {
		i := g.r.Intn(len(eligible))
		b := eligible[i]
		eligible[i] = eligible[len(eligible)-1]
		eligible = eligible[:len(eligible)-1]
		// Re-check: an earlier link this round may have made b adjacent.
		if g.peeringAllowed(a, b) {
			g.addPeerLink(a, b)
		}
	}
}
