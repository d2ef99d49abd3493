package topology_test

import (
	"fmt"
	"slices"
	"testing"

	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// csrReference is the CSR builder with a hash map over every directed
// listing, kept as the executable specification of Adjacency: Reverse[k] is
// the row's position in the last listing of it in neighbor IDs[k]'s row, or
// -1 when there is none.
func csrReference(t *topology.Topology) *topology.Adjacency {
	n := t.N()
	a := &topology.Adjacency{Offsets: make([]int32, n+1)}
	total := 0
	for i := range t.Nodes {
		total += t.Nodes[i].Degree()
		a.Offsets[i+1] = int32(total)
	}
	a.IDs = make([]topology.NodeID, total)
	a.Rels = make([]topology.Relation, total)
	a.Reverse = make([]int32, total)

	// slotOf maps a directed edge (from, to) to the slot of `to` in
	// `from`'s row, packed into one uint64 key.
	slotOf := make(map[uint64]int32, total)
	edge := func(from, to topology.NodeID) uint64 {
		return uint64(uint32(from))<<32 | uint64(uint32(to))
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		k := a.Offsets[i]
		put := func(id topology.NodeID, rel topology.Relation) {
			a.IDs[k] = id
			a.Rels[k] = rel
			slotOf[edge(nd.ID, id)] = k - a.Offsets[i]
			k++
		}
		for _, v := range nd.Customers {
			put(v, topology.Customer)
		}
		for _, v := range nd.Peers {
			put(v, topology.Peer)
		}
		for _, v := range nd.Providers {
			put(v, topology.Provider)
		}
	}
	for i := range t.Nodes {
		lo, hi := a.Offsets[i], a.Offsets[i+1]
		for k := lo; k < hi; k++ {
			if s, ok := slotOf[edge(a.IDs[k], topology.NodeID(i))]; ok {
				a.Reverse[k] = s
			} else {
				a.Reverse[k] = -1
			}
		}
	}
	return a
}

// sameCSR fails unless t's CSR equals the reference builder's, array by
// array. It builds from a fresh Topology sharing t's lists, so a corrupted
// copy never reuses a cached block.
func sameCSR(tb testing.TB, label string, t *topology.Topology) {
	tb.Helper()
	got := (&topology.Topology{Nodes: t.Nodes, NumRegions: t.NumRegions}).CSR()
	want := csrReference(t)
	switch {
	case !slices.Equal(got.Offsets, want.Offsets):
		tb.Fatalf("%s: Offsets differ from the reference", label)
	case !slices.Equal(got.IDs, want.IDs):
		tb.Fatalf("%s: IDs differ from the reference", label)
	case !slices.Equal(got.Rels, want.Rels):
		tb.Fatalf("%s: Rels differ from the reference", label)
	case !slices.Equal(got.Reverse, want.Reverse):
		tb.Fatalf("%s: Reverse differs from the reference", label)
	}
}

// cloneLists deep-copies t's neighbor lists so a corruption stays local.
func cloneLists(t *topology.Topology) *topology.Topology {
	c := &topology.Topology{NumRegions: t.NumRegions, Nodes: slices.Clone(t.Nodes)}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		nd.Customers = slices.Clone(nd.Customers)
		nd.Peers = slices.Clone(nd.Peers)
		nd.Providers = slices.Clone(nd.Providers)
	}
	return c
}

// listOf returns a pointer to one of node's three lists, chosen by r.
func listOf(nd *topology.Node, r *rng.Source) *[]topology.NodeID {
	return [...]*[]topology.NodeID{&nd.Customers, &nd.Peers, &nd.Providers}[r.Intn(3)]
}

// csrCorruptions break a topology's lists in each way a hand-built or
// decoded topology can: a link listed on one side only, a link listed
// twice, a self-loop, and a neighbor outside [0, N).
var csrCorruptions = []struct {
	name    string
	corrupt func(c *topology.Topology, r *rng.Source)
}{
	{"one-sided link", func(c *topology.Topology, r *rng.Source) {
		nd := &c.Nodes[r.Intn(c.N())]
		for nd.Degree() == 0 {
			nd = &c.Nodes[r.Intn(c.N())]
		}
		l := listOf(nd, r)
		for len(*l) == 0 {
			l = listOf(nd, r)
		}
		*l = slices.Delete(*l, 0, 1)
	}},
	{"duplicate link", func(c *topology.Topology, r *rng.Source) {
		nd := &c.Nodes[r.Intn(c.N())]
		for len(nd.Providers) == 0 {
			nd = &c.Nodes[r.Intn(c.N())]
		}
		l := listOf(nd, r)
		*l = append(*l, nd.Providers[r.Intn(len(nd.Providers))])
	}},
	{"self-loop", func(c *topology.Topology, r *rng.Source) {
		nd := &c.Nodes[r.Intn(c.N())]
		l := listOf(nd, r)
		*l = append(*l, nd.ID)
	}},
	{"out-of-range neighbor", func(c *topology.Topology, r *rng.Source) {
		l := listOf(&c.Nodes[r.Intn(c.N())], r)
		*l = append(*l, topology.NodeID(c.N()+r.Intn(3)))
	}},
	{"negative neighbor", func(c *topology.Topology, r *rng.Source) {
		l := listOf(&c.Nodes[r.Intn(c.N())], r)
		*l = append(*l, topology.NodeID(-1-r.Intn(3)))
	}},
}

// TestCSRMatchesReference holds the transposing builder to the map-based
// reference on every scenario at random sizes and seeds, and on each
// corruption of those topologies (where it must not panic either).
func TestCSRMatchesReference(t *testing.T) {
	r := rng.New(47)
	for _, sc := range scenario.All() {
		for draw := 0; draw < 3; draw++ {
			n, seed := 60+r.Intn(1500), r.Uint64()
			topo, err := sc.Generate(n, seed)
			if err != nil {
				t.Fatalf("%s n=%d seed=%d: %v", sc.Name, n, seed, err)
			}
			label := fmt.Sprintf("%s n=%d seed=%d", sc.Name, n, seed)
			sameCSR(t, label, topo)
			if !topo.CSR().Symmetric() {
				t.Fatalf("%s: generated topology has an asymmetric CSR", label)
			}
			for _, k := range csrCorruptions {
				c := cloneLists(topo)
				k.corrupt(c, r)
				sameCSR(t, label+" "+k.name, c)
			}
		}
	}
}

// FuzzCSRReverse builds lists from arbitrary bytes — in-range, negative and
// out-of-range neighbors, self-loops, duplicates, one-sided and two-sided
// links under any relation — and requires the builder not to panic and to
// agree with the reference.
func FuzzCSRReverse(f *testing.F) {
	f.Add(uint8(3), []byte{0x81, 1, 0x82, 2, 0x05, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 0xff})
	f.Add(uint8(6), []byte{0x80, 5, 0x83, 7, 4, 0xfe, 0x8a, 3, 2, 2})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := 1 + int(size%32)
		topo := &topology.Topology{NumRegions: 1, Nodes: make([]topology.Node, n)}
		for i := range topo.Nodes {
			topo.Nodes[i].ID = topology.NodeID(i)
		}
		add := func(nd *topology.Node, rel topology.Relation, v topology.NodeID) {
			switch rel {
			case topology.Customer:
				nd.Customers = append(nd.Customers, v)
			case topology.Peer:
				nd.Peers = append(nd.Peers, v)
			default:
				nd.Providers = append(nd.Providers, v)
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			// data[0]: bit 7 asks for the back link, bits 0-6 pick the
			// node and the relation; data[1] picks a neighbor in
			// [-(n+1), n+1].
			from := int(data[0]&0x7f) % n
			rel := topology.Relation(int(data[0]&0x7f) / n % 3)
			to := topology.NodeID(int(int8(data[1])) % (n + 2))
			add(&topo.Nodes[from], rel, to)
			if data[0]&0x80 != 0 && to >= 0 && int(to) < n {
				add(&topo.Nodes[to], rel.Invert(), topology.NodeID(from))
			}
		}
		sameCSR(t, "fuzz", topo)
	})
}
