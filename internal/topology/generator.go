package topology

import (
	"fmt"
	"math/bits"

	"bgpchurn/internal/rng"

	"bgpchurn/internal/obs"
)

// Generate builds a topology per the paper's two-phase procedure: first the
// T clique and the transit hierarchy top-down (T, then M one at a time,
// then the stubs), then the peering links; past the clique it is one Grow
// step. All provider and M-M peer selections use preferential attachment;
// CP peering is uniform. The invariants enforced are: no provider loops
// (guaranteed by construction: providers are always chosen among earlier
// nodes), region-constrained connectivity, simple graph (no parallel links),
// and no peering between a node and a member of its customer tree.
//
// Selection runs on the Fenwick-indexed samplers (sampler.go), the
// customer-cone relation over the M nodes (relation.go) and region-bucketed
// peering pools: every pick consumes exactly one Intn over the same total as
// a linear scan of the candidates would, so the output is byte-identical to
// the O(n²) reference generator kept as the executable specification at the
// module root (gen_reference_test.go; gen_equiv_test.go compares the two).
func Generate(p Params) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pt := startPhases()
	t := tierOneClique(p)
	pt.lap(obs.PhaseClique)
	// The clique's nodes and links are this call's work too.
	return grow(t, p, &pt, 0, p.NT*(p.NT-1)/2), nil
}

// tierOneClique returns the NT tier-1 nodes, present in all regions and
// fully meshed with peering links, each listing its peers in ID order.
func tierOneClique(p Params) *Topology {
	var all RegionSet
	for i := 0; i < p.Regions; i++ {
		all = all.Add(i)
	}
	t := &Topology{Nodes: make([]Node, p.NT), NumRegions: p.Regions}
	for a := range t.Nodes {
		nd := &t.Nodes[a]
		*nd = Node{ID: NodeID(a), Type: T, Regions: all}
		for b := 0; b < p.NT; b++ {
			if b != a {
				nd.Peers = append(nd.Peers, NodeID(b))
			}
		}
	}
	return t
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

// samplers bundles the accelerated selection structures, built by
// initSamplers over the topology a growth step starts from.
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
	// links counts the links this builder added (transit and peer).
	links int
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
	// rel is the customer-cone relation over mIDs (relation.go), built
	// once after the transit phase; its index maps a NodeID to its M index,
	// or -1. mSet is a one-row scratch bitset over M index for the peering
	// phases.
	rel  *relation
	mSet []uint64
	// mMaskR holds per-region M-membership masks over M index, built by
	// prepareMPeeringScratch.
	mMaskR [][]uint64
	// nbrMark/nbrEpoch mark a CP node's neighbors in addUniformPeers.
	nbrMark  []uint32
	nbrEpoch uint32
	// candScratch/eligScratch are reused across addUniformPeers calls.
	candScratch []NodeID
	eligScratch []NodeID
	// peerFromM/peerFromCP are the first indices of mIDs/cpIDs that the
	// peering phase draws links *for*: past the pre-existing nodes, whose
	// peering is already in place — existing nodes still serve as
	// candidates.
	peerFromM  int
	peerFromCP int
}

// initSamplers builds the provider-class samplers over the nodes that exist
// so far: the full T clique and the pre-existing M nodes, with their
// reconstructed degrees. Later M nodes are inserted by addMNodes as they
// finish their own provider round.
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

func (g *builder) newNode(typ NodeType, regions RegionSet) NodeID {
	id := NodeID(len(g.topo.Nodes))
	g.topo.Nodes = append(g.topo.Nodes, Node{ID: id, Type: typ, Regions: regions})
	g.transitDegree = append(g.transitDegree, 0)
	g.peerDegree = append(g.peerDegree, 0)
	return id
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
	g.links++
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
	g.links++
	g.peerDegree[a]++
	g.peerDegree[b]++
	// The M-peering sampler exists only from that phase on.
	if g.samp.peerM != nil {
		g.samp.peerM.addWeight(a, 1)
		g.samp.peerM.addWeight(b, 1)
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
// provider is excluded from its sampler, and restoreAll ends the round.
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

// addMPeering gives each M node from index peerFromM on ~PM peering links
// to other M nodes chosen by preferential attachment on peering degree, on a
// peerDegree+1 Fenwick sampler. Per M node a, the rejections of the
// reference's peering check are excluded once, in ascending position order
// (peerExclusions: a itself, its neighbors and its relation row, its cone
// and its transitive providers), then each accepted link only excludes the
// new peer; one round of exclusions serves all ~PM slots, whose draws
// differ only by the nodes linked in between.
func (g *builder) addMPeering() {
	s := newPASampler(g.p.N, len(g.mIDs))
	for _, m := range g.mIDs {
		s.insert(m, g.topo.Nodes[m].Regions, int64(g.peerDegree[m]+1))
	}
	g.samp.peerM = s
	g.prepareMPeeringScratch()
	for k := g.peerFromM; k < len(g.mIDs); k++ {
		a := g.mIDs[k]
		want := g.r.CountAroundMean(g.p.PM, 0)
		if want == 0 {
			continue
		}
		for w, v := range g.peerExclusions(k) {
			for v != 0 {
				s.exclude(g.mIDs[w<<6+bits.TrailingZeros64(v)])
				v &= v - 1
			}
		}
		for j := 0; j < want; j++ {
			b := s.draw(g.r, g.topo.Nodes[a].Regions)
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
	g.nbrMark = make([]uint32, len(g.topo.Nodes))
	for _, a := range g.cpIDs[g.peerFromCP:] {
		g.addUniformPeers(a, mb, g.p.PCPM, g.transitMProviders(a))
		g.addUniformPeers(a, cpb, g.p.PCPCP, nil)
	}
}

// addUniformPeers links a to ~mean uniformly chosen eligible candidates of
// the bucketed pool. Only region-overlapping pool members are enumerated;
// the bucket merge yields them in pool order, so the eligible slice — and
// every Intn index into it — matches a full-pool scan exactly. anc is a's
// transitMProviders bitset: an M candidate with its bit set holds a in its
// customer cone. CP candidates have no M index, so the CP pool passes nil.
func (g *builder) addUniformPeers(a NodeID, buckets *regionBuckets, mean float64, anc []uint64) {
	want := g.r.CountAroundMean(mean, 0)
	if want == 0 {
		return
	}
	// Collect the eligible candidates once; uniform selection without
	// replacement by partial shuffle. Bucket members already overlap a's
	// regions; adjacency is tested via epoch marks on a's neighbor lists.
	// Nothing drawn needs a re-check: each candidate is drawn at most once,
	// and the round adds no transit link and no link between candidates.
	nd := &g.topo.Nodes[a]
	g.nbrEpoch++
	if g.nbrEpoch == 0 {
		clear(g.nbrMark)
		g.nbrEpoch = 1
	}
	for _, x := range nd.Providers {
		g.nbrMark[x] = g.nbrEpoch
	}
	for _, x := range nd.Customers {
		g.nbrMark[x] = g.nbrEpoch
	}
	for _, x := range nd.Peers {
		g.nbrMark[x] = g.nbrEpoch
	}
	g.candScratch = buckets.candidates(nd.Regions, g.candScratch[:0])
	eligible := g.eligScratch[:0]
	for _, c := range g.candScratch {
		if c == a || g.nbrMark[c] == g.nbrEpoch {
			continue
		}
		if j := g.rel.index[c]; j >= 0 && anc[j>>6]&(1<<(uint(j)&63)) != 0 {
			continue
		}
		eligible = append(eligible, c)
	}
	g.eligScratch = eligible
	for s := 0; s < want && len(eligible) > 0; s++ {
		i := g.r.Intn(len(eligible))
		g.addPeerLink(a, eligible[i])
		eligible[i] = eligible[len(eligible)-1]
		eligible = eligible[:len(eligible)-1]
	}
}
