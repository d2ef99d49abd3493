package topology

// relation is the customer-cone relation over the nodes that have customers,
// the package's one no-valley oracle: the generator reads it over its M nodes
// for peering exclusion and eligibility, Validate over every node with
// customers for its peering rule.
//
// The relation lists its nodes in a providers-first order (a listed node's
// listed providers come before it); row k belongs to the k-th, and its bit j
// is set iff the j-th is in the k-th's customer cone or the k-th in the
// j-th's. So the bits below k are k's transitive providers (anc) and the bits
// above k its transitive customers (desc): one bit matrix holds both
// relations.
//
// A customer path between two nodes with customers runs through nodes with
// customers only, so the transit edges among the listed nodes decide the
// relation, and a stub's transitive providers are its providers plus their
// anc bits. The generator lists its M nodes in creation order: every provider
// edge points from an earlier-created node to a later one, and T nodes have
// no providers, so no M-M path runs through one.
type relation struct {
	index []int32 // row of each node, -1 if unlisted
	w     int     // words per row
	bits  []uint64
}

// newRelation fills the relation over ids, a providers-first list of nodes
// whose transit hierarchy is final. anc(k) = ∪ over listed providers p of
// ({p} ∪ anc(p)) fills in ascending order: each provider's row is complete
// before its customers' and still holds only anc bits, so its low words are
// ORed whole. desc(k) = ∪ over listed customers c of ({c} ∪ desc(c)) fills in
// descending order; by then c's row also holds anc(c), which contains k, so
// only the bits above c are copied.
func newRelation(nodes []Node, ids []NodeID) *relation {
	r := &relation{index: make([]int32, len(nodes)), w: (len(ids) + 63) / 64}
	for i := range r.index {
		r.index[i] = -1
	}
	for k, m := range ids {
		r.index[m] = int32(k)
	}
	r.bits = make([]uint64, len(ids)*r.w)
	for k, m := range ids {
		row := r.row(k)
		for _, p := range nodes[m].Providers {
			if j := int(r.index[p]); j >= 0 {
				for w, v := range r.row(j)[:j>>6+1] {
					row[w] |= v
				}
				row[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	for k := len(ids) - 1; k >= 0; k-- {
		row := r.row(k)
		for _, c := range nodes[ids[k]].Customers {
			if j := int(r.index[c]); j >= 0 {
				src := r.row(j)
				row[j>>6] |= src[j>>6]&^(2<<(uint(j)&63)-1) | 1<<(uint(j)&63)
				for w := j>>6 + 1; w < len(src); w++ {
					row[w] |= src[w]
				}
			}
		}
	}
	return r
}

// row is the relation row of the k-th listed node.
func (r *relation) row(k int) []uint64 {
	return r.bits[k*r.w : (k+1)*r.w : (k+1)*r.w]
}

// coneRelation builds the relation over every node with customers of a
// finished topology, for Validate. order is customersFirst(t), complete (the
// provider relation is acyclic); reversed, it is providers-first however the
// nodes are numbered.
func coneRelation(t *Topology, order []NodeID) *relation {
	var ids []NodeID
	for i := len(order) - 1; i >= 0; i-- {
		if len(t.Nodes[order[i]].Customers) > 0 {
			ids = append(ids, order[i])
		}
	}
	return newRelation(t.Nodes, ids)
}

// inCone reports whether d lies in the customer cone of the k-th listed node
// a, on a coneRelation: a listed d iff row k has d's bit above k; a stub d
// iff a is one of its providers or row k has the bit of one of them above k.
func (r *relation) inCone(nodes []Node, k int, d NodeID) bool {
	row := r.row(k)
	has := func(j int) bool { return j > k && row[j>>6]&(1<<(uint(j)&63)) != 0 }
	if j := int(r.index[d]); j >= 0 {
		return has(j)
	}
	for _, p := range nodes[d].Providers {
		if j := int(r.index[p]); j == k || has(j) {
			return true
		}
	}
	return false
}

// customersFirst returns the nodes in a customers-first topological order
// of the provider relation, by Kahn's algorithm upward from the stubs: a
// node is ready once every customer is. The order is shorter than N exactly
// when the provider relation has a cycle (Validate's hierarchy check). The
// neighbor lists must be symmetric; validateLists checks that first.
func customersFirst(t *Topology) []NodeID {
	waiting := make([]int32, len(t.Nodes))
	order := make([]NodeID, 0, len(t.Nodes))
	for i := range t.Nodes {
		waiting[i] = int32(len(t.Nodes[i].Customers))
		if waiting[i] == 0 {
			order = append(order, NodeID(i))
		}
	}
	for k := 0; k < len(order); k++ {
		for _, p := range t.Nodes[order[k]].Providers {
			if waiting[p]--; waiting[p] == 0 {
				order = append(order, p)
			}
		}
	}
	return order
}

// transitMProviders returns, in the mSet scratch, stub a's transitive M
// providers as a bitset over M index: the M nodes whose customer cone holds
// a. They are a's M providers p and the anc bits of each (indices below
// p's); the T nodes above a are never peering candidates.
func (g *builder) transitMProviders(a NodeID) []uint64 {
	x := g.mSet
	clear(x)
	for _, p := range g.topo.Nodes[a].Providers {
		if j := int(g.rel.index[p]); j >= 0 {
			row := g.rel.row(j)
			for w, v := range row[:j>>6] {
				x[w] |= v
			}
			x[j>>6] |= row[j>>6]&(1<<(uint(j)&63)-1) | 1<<(uint(j)&63)
		}
	}
	return x
}

// prepareMPeeringScratch builds the per-region M-membership masks over M
// index that peerExclusions intersects relation rows with, and the one-row
// mSet scratch of the peering phases.
func (g *builder) prepareMPeeringScratch() {
	g.mSet = make([]uint64, g.rel.w)
	g.mMaskR = make([][]uint64, g.p.Regions)
	for r := range g.mMaskR {
		g.mMaskR[r] = make([]uint64, g.rel.w)
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
	for w, v := range g.rel.row(k) {
		x[w] &= v
	}
	x[k>>6] |= 1 << (uint(k) & 63)
	for _, y := range nd.Peers {
		if j := g.rel.index[y]; j >= 0 && g.topo.Nodes[y].Regions.Overlaps(nd.Regions) {
			x[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return x
}
