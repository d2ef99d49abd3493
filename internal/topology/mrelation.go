package topology

// The M relation is the generator's no-valley oracle. Row k belongs to the
// M node mIDs[k]; its bit j is set iff mIDs[j] is in mIDs[k]'s customer cone
// or mIDs[k] is in mIDs[j]'s. M indices follow creation order, and every
// provider edge points from an earlier-created node to a later one, so the
// bits below k are k's transitive M providers (anc) and the bits above k its
// transitive M customers (desc): one M×M bit matrix holds both relations.
//
// A customer path between two M nodes runs through M nodes only (T nodes
// have no providers, stubs no customers), so the M-M transit edges alone
// decide the relation, and a stub's transitive M providers are its M
// providers plus their anc bits.

// buildMRelation fills the relation once the transit hierarchy is final.
// anc(k) = ∪ over M providers p of ({p} ∪ anc(p)) fills in ascending order:
// each provider's row is complete before its customers' and still holds
// only anc bits, so its low words are ORed whole. desc(k) = ∪ over M
// customers c of ({c} ∪ desc(c)) fills in descending order; by then c's row
// also holds anc(c), which contains k, so only the bits above c are copied.
func (g *builder) buildMRelation() {
	nodes := g.topo.Nodes
	g.mIndex = make([]int32, len(nodes))
	for i := range g.mIndex {
		g.mIndex[i] = -1
	}
	for k, m := range g.mIDs {
		g.mIndex[m] = int32(k)
	}
	g.relW = (len(g.mIDs) + 63) / 64
	g.rel = make([]uint64, len(g.mIDs)*g.relW)
	g.mSet = make([]uint64, g.relW)
	for k, m := range g.mIDs {
		row := g.relRow(k)
		for _, p := range nodes[m].Providers {
			if j := int(g.mIndex[p]); j >= 0 {
				for w, v := range g.relRow(j)[:j>>6+1] {
					row[w] |= v
				}
				row[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	for k := len(g.mIDs) - 1; k >= 0; k-- {
		row := g.relRow(k)
		for _, c := range nodes[g.mIDs[k]].Customers {
			if j := int(g.mIndex[c]); j >= 0 {
				src := g.relRow(j)
				row[j>>6] |= src[j>>6]&^(2<<(uint(j)&63)-1) | 1<<(uint(j)&63)
				for w := j>>6 + 1; w < len(src); w++ {
					row[w] |= src[w]
				}
			}
		}
	}
}

// relRow is the relation row of the M node with index k.
func (g *builder) relRow(k int) []uint64 {
	return g.rel[k*g.relW : (k+1)*g.relW : (k+1)*g.relW]
}

// transitMProviders returns, in the mSet scratch, stub a's transitive M
// providers as a bitset over M index: the M nodes whose customer cone holds
// a. They are a's M providers p and the anc bits of each (indices below
// p's); the T nodes above a are never peering candidates.
func (g *builder) transitMProviders(a NodeID) []uint64 {
	x := g.mSet
	clear(x)
	for _, p := range g.topo.Nodes[a].Providers {
		if j := int(g.mIndex[p]); j >= 0 {
			row := g.relRow(j)
			for w, v := range row[:j>>6] {
				x[w] |= v
			}
			x[j>>6] |= row[j>>6]&(1<<(uint(j)&63)-1) | 1<<(uint(j)&63)
		}
	}
	return x
}

// prepareMPeeringScratch builds the per-region M-membership masks over M
// index that peerExclusions intersects relation rows with.
func (g *builder) prepareMPeeringScratch() {
	g.mMaskR = make([][]uint64, g.p.Regions)
	for r := range g.mMaskR {
		g.mMaskR[r] = make([]uint64, g.relW)
	}
	for k, m := range g.mIDs {
		rs := g.topo.Nodes[m].Regions
		for r := 0; r < g.p.Regions; r++ {
			if rs.HasRegion(r) {
				g.mMaskR[r][k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
}

// peerExclusions returns, in the mSet scratch, the M nodes that M node k
// may not peer with in its M-peering round, as a bitset over M index: k
// itself, its M peers, and row k of the relation — every M node in its
// customer cone or holding it in theirs, which includes its M providers
// and customers. The set is restricted to the nodes with a region in k's
// (the OR of the per-region masks): any other node sits in a sampler tree
// that k's draws never sum, so leaving it out cannot change a total or a
// pick.
func (g *builder) peerExclusions(k int) []uint64 {
	nd := &g.topo.Nodes[g.mIDs[k]]
	x := g.mSet
	clear(x)
	for r := 0; r < g.p.Regions; r++ {
		if nd.Regions.HasRegion(r) {
			for w, v := range g.mMaskR[r] {
				x[w] |= v
			}
		}
	}
	for w, v := range g.relRow(k) {
		x[w] &= v
	}
	x[k>>6] |= 1 << (uint(k) & 63)
	for _, y := range nd.Peers {
		if j := g.mIndex[y]; j >= 0 && g.topo.Nodes[y].Regions.Overlaps(nd.Regions) {
			x[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return x
}
