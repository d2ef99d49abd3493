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
// instead of an unconditional n bits per node.
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

// customerCones materializes the customer cone of every node of a finished
// topology in one bottom-up pass, for Validate: each cone is the union of
// its customers' already-built cones plus the customers themselves, so a
// child's result is shared by every ancestor instead of re-traversed per
// ancestor. Nodes are visited in customersFirst order (hand-built and
// relabeled topologies number their nodes freely), every node with
// customers gets a cone (T nodes included), and list-form unions sort. The
// provider relation must be acyclic and the neighbor lists symmetric;
// Validate checks both first.
func customerCones(t *Topology) []coneSet {
	n := len(t.Nodes)
	sets := make([]coneSet, n)
	threshold := coneThreshold(n)
	for _, id := range customersFirst(t) {
		nd := &t.Nodes[id]
		if len(nd.Customers) == 0 {
			continue
		}
		est, dense := coneEstimate(nd.Customers, sets)
		if dense || est > threshold {
			sets[id] = denseUnion(n, nd.Customers, sets)
			continue
		}
		out := make([]NodeID, 0, est)
		for _, c := range nd.Customers {
			out = append(append(out, c), sets[c].list...)
		}
		slices.Sort(out)
		out = slices.Compact(out)
		sets[id] = coneSet{list: out, size: len(out)}
	}
	return sets
}
