package topology

import "math/bits"

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

// providesTo reports whether node c is a transitive provider of stub a,
// i.e. a is in c's customer cone: c is one of a's M providers or in the anc
// bits of one (anc(p) holds only indices below p's). Only M nodes qualify;
// the T nodes above a are never peering candidates.
func (g *builder) providesTo(c, a NodeID) bool {
	j := g.mIndex[c]
	if j < 0 {
		return false
	}
	for _, p := range g.topo.Nodes[a].Providers {
		if k := g.mIndex[p]; k == j || k > j && g.relRow(int(k))[j>>6]&(1<<(uint(j)&63)) != 0 {
			return true
		}
	}
	return false
}

// prepareMPeeringScratch builds the per-region M-membership masks over M
// index that the M-M exclusion rounds intersect relation rows with, and the
// per-round scratch mask buildQMask ORs them into.
func (g *builder) prepareMPeeringScratch() {
	g.mMaskR = make([][]uint64, g.p.Regions)
	for r := range g.mMaskR {
		g.mMaskR[r] = make([]uint64, g.relW)
	}
	g.qMask = make([]uint64, g.relW)
	for k, m := range g.mIDs {
		rs := g.topo.Nodes[m].Regions
		for r := 0; r < g.p.Regions; r++ {
			if rs.HasRegion(r) {
				g.mMaskR[r][k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
}

// buildQMask ORs the per-region M masks for every region in q into the
// shared scratch mask: bit k set iff M node mIDs[k] has a region in q —
// exactly the nodes whose sampler trees are eligible for a draw with
// query q.
func (g *builder) buildQMask(q RegionSet) []uint64 {
	dst := g.qMask
	clear(dst)
	for r := 0; r < g.p.Regions; r++ {
		if q.HasRegion(r) {
			for w, v := range g.mMaskR[r] {
				dst[w] |= v
			}
		}
	}
	return dst
}

// excludeRelated feeds the no-valley exclusions of the M node with index k
// into s: row k of the relation — every M node in its customer cone or
// holding it in theirs — restricted to qMask (from buildQMask for its
// regions). Any other node sits in a sampler tree that is never summed for
// its draws, so leaving it unexcluded cannot change a total or a pick.
// Deduplication against the adjacency exclusions happens inside exclude.
func (g *builder) excludeRelated(k int, qMask []uint64, s *paSampler) {
	for w, v := range g.relRow(k) {
		v &= qMask[w]
		for v != 0 {
			s.exclude(g.mIDs[w<<6+bits.TrailingZeros64(v)])
			v &= v - 1
		}
	}
}
