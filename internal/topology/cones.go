package topology

import (
	"math/bits"
	"slices"
	"sort"
)

// coneSet is a size-adaptive customer-cone set: a sorted NodeID list while
// small, a dense bitset once the list would outgrow one. The threshold is
// the break-even point (a list entry costs 4 bytes, a bitset n/8 bytes
// total), so worst-case cone memory is bounded by min(Σ|cone|·4B, n²/32 b)
// instead of the old unconditional n bits per M/CP node — the O(n²/64)
// dense allocation that dominated 100k generation memory.
//
// The zero value is the empty set (stub nodes: no customers, no cone).
type coneSet struct {
	list []NodeID // sorted ascending; nil when empty or dense
	bits []uint64 // dense bitset over node IDs; nil unless dense
	size int
}

// contains reports whether d is in the set.
func (c *coneSet) contains(d NodeID) bool {
	if c.bits != nil {
		return c.bits[d>>6]&(1<<(uint(d)&63)) != 0
	}
	l := c.list
	i := sort.Search(len(l), func(i int) bool { return l[i] >= d })
	return i < len(l) && l[i] == d
}

// prepareConesShared materializes customer cones for every M node in one
// bottom-up pass, replacing the per-node DFS over dense n-bit sets. The
// provider relation is acyclic with edges pointing from earlier-created
// (lower-ID) providers to later customers, so scanning IDs in descending
// order visits every node after all of its customers: each cone is the
// union of the customers' already-built cones plus the customers
// themselves — child results are shared by every ancestor instead of being
// re-traversed per ancestor, which is what made the DFS quadratic.
//
// Only M nodes get cones: stubs (CP, C) have no customers (empty cone, the
// coneSet zero value), and T nodes never appear in a peeringAllowed test.
// inTree answers from these sets are identical to the oracle's dense
// bitsets — same membership, different representation.
func (g *builder) prepareConesShared() {
	n := len(g.topo.Nodes)
	g.coneSets = make([]coneSet, n)
	threshold := coneThreshold(n)
	var scratch []NodeID
	for i := n - 1; i >= 0; i-- {
		nd := &g.topo.Nodes[i]
		if nd.Type != M || len(nd.Customers) == 0 {
			continue
		}
		est, dense := coneEstimate(nd.Customers, g.coneSets)
		if dense || est > threshold {
			g.coneSets[i] = denseUnion(n, nd.Customers, g.coneSets)
			continue
		}
		// Sorted-list union by iterative two-way merge. A customer's cone
		// members all have IDs greater than the customer (descendants are
		// created later), so {c} ∪ cone(c) is cone(c) with c prepended —
		// already sorted.
		out := make([]NodeID, 0, est)
		for _, c := range nd.Customers {
			cs := &g.coneSets[c]
			scratch = append(scratch[:0], out...)
			out = mergeWithCone(out[:0], scratch, c, cs.list)
		}
		g.coneSets[i] = coneSet{list: out, size: len(out)}
	}
}

// coneThreshold is the break-even cone size for switching from a sorted
// list to a bitset over n nodes, with a small floor so tiny topologies
// don't bounce representations.
func coneThreshold(n int) int { return n/32 + 8 }

// coneEstimate upper-bounds the size of the cone whose direct customers are
// given (their own cones already built in sets) to pick its representation:
// any dense child forces dense (the parent cone is a superset).
func coneEstimate(customers []NodeID, sets []coneSet) (est int, dense bool) {
	for _, c := range customers {
		cs := &sets[c]
		est += 1 + cs.size
		if cs.bits != nil {
			dense = true
		}
	}
	return est, dense
}

// denseUnion builds the bitset cone over n nodes of a node with the given
// direct customers: the customers plus their already-built cones.
func denseUnion(n int, customers []NodeID, sets []coneSet) coneSet {
	b := make([]uint64, (n+63)/64)
	for _, c := range customers {
		cs := &sets[c]
		if cs.bits != nil {
			for w, v := range cs.bits {
				b[w] |= v
			}
		} else {
			for _, m := range cs.list {
				b[m>>6] |= 1 << (uint(m) & 63)
			}
		}
		b[c>>6] |= 1 << (uint(c) & 63)
	}
	size := 0
	for _, v := range b {
		size += bits.OnesCount64(v)
	}
	return coneSet{bits: b, size: size}
}

// customerCones materializes the customer cone of every node of a finished
// topology in one bottom-up pass, for Validate. It is prepareConesShared
// without the generator's assumptions: nodes are visited in a
// customers-first topological order of the provider DAG instead of by
// descending ID (hand-built and relabeled topologies number their nodes
// freely), every node with customers gets a cone (T nodes included), and
// list-form unions sort instead of relying on ID order. The provider
// relation must be acyclic and the neighbor lists symmetric; Validate
// checks both first.
func customerCones(t *Topology) []coneSet {
	n := len(t.Nodes)
	sets := make([]coneSet, n)
	threshold := coneThreshold(n)
	// Kahn's algorithm upward from the stubs: a node is ready once every
	// customer's cone is built.
	waiting := make([]int32, n)
	ready := make([]NodeID, 0, n)
	for i := range t.Nodes {
		waiting[i] = int32(len(t.Nodes[i].Customers))
		if waiting[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	for k := 0; k < len(ready); k++ {
		nd := &t.Nodes[ready[k]]
		for _, p := range nd.Providers {
			if waiting[p]--; waiting[p] == 0 {
				ready = append(ready, p)
			}
		}
		if len(nd.Customers) == 0 {
			continue
		}
		est, dense := coneEstimate(nd.Customers, sets)
		if dense || est > threshold {
			sets[nd.ID] = denseUnion(n, nd.Customers, sets)
			continue
		}
		out := make([]NodeID, 0, est)
		for _, c := range nd.Customers {
			out = append(append(out, c), sets[c].list...)
		}
		slices.Sort(out)
		out = slices.Compact(out)
		sets[nd.ID] = coneSet{list: out, size: len(out)}
	}
	return sets
}

// mergeWithCone merges sorted acc with the sorted sequence (c, cone...)
// into dst, dropping duplicates.
func mergeWithCone(dst, acc []NodeID, c NodeID, cone []NodeID) []NodeID {
	i := 0
	pending, hasPending := c, true
	next := func() (NodeID, bool) {
		if hasPending {
			hasPending = false
			return pending, true
		}
		if i < len(cone) {
			v := cone[i]
			i++
			return v, true
		}
		return 0, false
	}
	bv, bok := next()
	for _, a := range acc {
		for bok && bv < a {
			dst = append(dst, bv)
			bv, bok = next()
		}
		if bok && bv == a {
			bv, bok = next()
		}
		dst = append(dst, a)
	}
	for bok {
		dst = append(dst, bv)
		bv, bok = next()
	}
	return dst
}

// prepareMPeeringScratch builds the per-phase scratch the M-M exclusion
// rounds share: an M-membership bitmask (so dense cone scans intersect
// away the stub majority word-wise instead of type-checking every member)
// and per-M-node M-only provider lists (so the transitive-provider walk
// never touches T nodes or re-pushes marked ones — the walk is confined to
// the M-M transit edges, a small fraction of the provider edges).
func (g *builder) prepareMPeeringScratch() {
	n := len(g.topo.Nodes)
	words := (n + 63) / 64
	g.ancMark = make([]uint32, n)
	g.mMaskR = make([][]uint64, g.p.Regions)
	for r := range g.mMaskR {
		g.mMaskR[r] = make([]uint64, words)
	}
	g.qMask = make([]uint64, words)
	g.mProv = make([][]NodeID, n)
	for _, m := range g.mIDs {
		nd := &g.topo.Nodes[m]
		for r := 0; r < g.p.Regions; r++ {
			if nd.Regions.HasRegion(r) {
				g.mMaskR[r][m>>6] |= 1 << (uint(m) & 63)
			}
		}
		var ps []NodeID
		for _, u := range nd.Providers {
			if g.topo.Nodes[u].Type == M {
				ps = append(ps, u)
			}
		}
		g.mProv[m] = ps
	}
}

// buildQMask ORs the per-region M masks for every region in q into the
// shared scratch mask: bit m set iff node m is an M node whose regions
// overlap q — exactly the nodes whose sampler trees are eligible for a
// draw with query q.
func (g *builder) buildQMask(q RegionSet) []uint64 {
	dst := g.qMask
	first := true
	for r := 0; r < g.p.Regions; r++ {
		if !q.HasRegion(r) {
			continue
		}
		src := g.mMaskR[r]
		if first {
			copy(dst, src)
			first = false
			continue
		}
		for w, v := range src {
			dst[w] |= v
		}
	}
	if first {
		for w := range dst {
			dst[w] = 0
		}
	}
	return dst
}

// excludeConeRelated feeds the M-M peering exclusion set for node a into s:
// every M node that is in a's customer cone (inTree(a, m)) or that has a in
// its own cone (inTree(m, a) — equivalently, a transitive provider of a,
// found by walking provider edges upward). qMask (from buildQMask for a's
// regions) restricts the set to M nodes whose regions overlap a's: any
// other node sits in a sampler tree that is never summed for a's draws, so
// leaving it unexcluded cannot change a total or a pick. Deduplication
// against the adjacency exclusions happens inside exclude via the epoch
// mark.
func (g *builder) excludeConeRelated(a NodeID, q RegionSet, qMask []uint64, s *paSampler) {
	cs := &g.coneSets[a]
	if cs.bits != nil {
		for w, v := range cs.bits {
			v &= qMask[w]
			for v != 0 {
				b := bits.TrailingZeros64(v)
				v &= v - 1
				s.exclude(NodeID(w<<6 + b))
			}
		}
	} else {
		for _, d := range cs.list {
			nd := &g.topo.Nodes[d]
			if nd.Type == M && nd.Regions.Overlaps(q) {
				s.exclude(d)
			}
		}
	}
	// Transitive providers, via an epoch-marked upward walk over the
	// M-only provider lists (T nodes have no providers and are never
	// candidates, so the walk skips them entirely). Marking at push keeps
	// every closure node on the stack at most once.
	g.ancEpoch++
	if g.ancEpoch == 0 {
		for i := range g.ancMark {
			g.ancMark[i] = 0
		}
		g.ancEpoch = 1
	}
	g.ancStack = g.ancStack[:0]
	for _, u := range g.topo.Nodes[a].Providers {
		if g.topo.Nodes[u].Type == M && g.ancMark[u] != g.ancEpoch {
			g.ancMark[u] = g.ancEpoch
			g.ancStack = append(g.ancStack, u)
		}
	}
	for len(g.ancStack) > 0 {
		m := g.ancStack[len(g.ancStack)-1]
		g.ancStack = g.ancStack[:len(g.ancStack)-1]
		if qMask[m>>6]&(1<<(uint(m)&63)) != 0 {
			s.exclude(m)
		}
		for _, u := range g.mProv[m] {
			if g.ancMark[u] != g.ancEpoch {
				g.ancMark[u] = g.ancEpoch
				g.ancStack = append(g.ancStack, u)
			}
		}
	}
}
