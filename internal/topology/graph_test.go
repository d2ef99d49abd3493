package topology

import (
	"math"
	"testing"
	"testing/quick"

	"bgpchurn/internal/rng"
)

// Tests of the walks over the AS graph: the statistics and BFS read the
// CSR, the hierarchy order and the connectivity check read the lists.

// lists returns an n-node topology whose undirected edges are listed as
// peerings on both ends.
func lists(n int, edges ...[2]NodeID) *Topology {
	t := &Topology{NumRegions: 1, Nodes: make([]Node, n)}
	for i := range t.Nodes {
		t.Nodes[i].ID = NodeID(i)
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		t.Nodes[u].Peers = append(t.Nodes[u].Peers, v)
		t.Nodes[v].Peers = append(t.Nodes[v].Peers, u)
	}
	return t
}

// undirected returns the CSR of lists(n, edges...).
func undirected(n int, edges ...[2]NodeID) *Adjacency { return lists(n, edges...).CSR() }

// hierarchy returns an n-node topology with the given (provider, customer)
// links, listed on both ends.
func hierarchy(n int, links ...[2]NodeID) *Topology {
	t := lists(n)
	for _, l := range links {
		addTransit(t, l[0], l[1])
	}
	return t
}

func addTransit(t *Topology, p, c NodeID) {
	t.Nodes[p].Customers = append(t.Nodes[p].Customers, c)
	t.Nodes[c].Providers = append(t.Nodes[c].Providers, p)
}

// pathEdges lists the edges of the path graph 0-1-2-...-(n-1).
func pathEdges(n int) [][2]NodeID {
	var e [][2]NodeID
	for i := 0; i < n-1; i++ {
		e = append(e, [2]NodeID{NodeID(i), NodeID(i + 1)})
	}
	return e
}

// completeEdges lists the edges of K_n.
func completeEdges(n int) [][2]NodeID {
	var e [][2]NodeID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]NodeID{NodeID(i), NodeID(j)})
		}
	}
	return e
}

func path(n int) *Adjacency     { return undirected(n, pathEdges(n)...) }
func complete(n int) *Adjacency { return undirected(n, completeEdges(n)...) }

func allSources(n int) []NodeID { return pathSources(n, 0) }

func TestBFSDistancesPath(t *testing.T) {
	g := path(5)
	d := g.BFSDistances(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	// 2 and 3 isolated from 0.
	g := undirected(4, [2]NodeID{0, 1}, [2]NodeID{2, 3})
	d := g.BFSDistances(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable nodes got distances %d, %d", d[2], d[3])
	}
}

func TestConnectedComponents(t *testing.T) {
	// Components {0,1,2}, {3,4} and the isolated node 5.
	g := lists(6, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{3, 4})
	if g.connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !lists(4, completeEdges(4)...).connected() {
		t.Fatal("K4 reported disconnected")
	}
	if !lists(0).connected() {
		t.Fatal("the empty graph is connected")
	}
	// Reaching every node through providers only still counts.
	if !hierarchy(3, [2]NodeID{2, 0}, [2]NodeID{2, 1}).connected() {
		t.Fatal("star under provider 2 reported disconnected")
	}
}

func TestClusteringComplete(t *testing.T) {
	if c := complete(5).clustering(); math.Abs(c-1) > 1e-12 {
		t.Fatalf("K5 clustering = %v, want 1", c)
	}
}

func TestClusteringPath(t *testing.T) {
	if c := path(10).clustering(); c != 0 {
		t.Fatalf("path clustering = %v, want 0", c)
	}
}

func TestClusteringTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus tail 2-3.
	g := undirected(4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{0, 2}, [2]NodeID{2, 3})
	// Local: c(0)=c(1)=1, c(2)=1/3 (one of three neighbor pairs linked);
	// node 3 has degree 1 and is excluded. Average = (1+1+1/3)/3 = 7/9.
	want := 7.0 / 9.0
	if c := g.clustering(); math.Abs(c-want) > 1e-12 {
		t.Fatalf("clustering = %v, want %v", c, want)
	}
}

func TestAveragePathLengthK3(t *testing.T) {
	if l := complete(3).averagePathLength(allSources(3)); math.Abs(l-1) > 1e-12 {
		t.Fatalf("K3 APL = %v, want 1", l)
	}
}

func TestAveragePathLengthPath3(t *testing.T) {
	// Path 0-1-2: distances 1,2,1,1,2,1 over ordered pairs → mean 4/3.
	if l := path(3).averagePathLength(allSources(3)); math.Abs(l-4.0/3.0) > 1e-12 {
		t.Fatalf("P3 APL = %v, want 4/3", l)
	}
}

func TestSampledAveragePathLength(t *testing.T) {
	g := path(4)
	// BFS from node 0 only: distances 1+2+3 over 3 pairs = 2.
	if l := g.averagePathLength([]NodeID{0}); math.Abs(l-2) > 1e-12 {
		t.Fatalf("sampled APL = %v, want 2", l)
	}
	// Two of ten sources: every fifth node.
	if got := pathSources(10, 2); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("pathSources(10, 2) = %v, want [0 5]", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := undirected(4, [2]NodeID{0, 1}, [2]NodeID{0, 2}, [2]NodeID{0, 3})
	h := g.degreeHistogram()
	if h[3] != 1 || h[1] != 3 {
		t.Fatalf("star histogram = %v", h)
	}
	if len(g.IDs) != 2*3 {
		t.Fatalf("%d slots, want 2 per edge", len(g.IDs))
	}
}

func TestDegreeCCDF(t *testing.T) {
	topo := lists(4, [2]NodeID{0, 1}, [2]NodeID{0, 2}, [2]NodeID{0, 3})
	degs, ccdf := DegreeCCDF(topo)
	if len(degs) != 2 || degs[0] != 1 || degs[1] != 3 {
		t.Fatalf("ccdf degrees = %v", degs)
	}
	if ccdf[0] != 1.0 {
		t.Fatalf("P(D>=1) = %v, want 1", ccdf[0])
	}
	if math.Abs(ccdf[1]-0.25) > 1e-12 {
		t.Fatalf("P(D>=3) = %v, want 0.25", ccdf[1])
	}
}

func TestAssortativity(t *testing.T) {
	// A star is maximally disassortative: hubs connect only to leaves.
	if r := undirected(5, [2]NodeID{0, 1}, [2]NodeID{0, 2}, [2]NodeID{0, 3}, [2]NodeID{0, 4}).assortativity(); r != -1 {
		t.Fatalf("star assortativity = %v, want -1", r)
	}
	// A regular graph (cycle) has no degree variance: defined as 0.
	cyc := undirected(4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{3, 0})
	if r := cyc.assortativity(); r != 0 {
		t.Fatalf("cycle assortativity = %v, want 0", r)
	}
	// Two disjoint cliques of different sizes: every edge joins equal
	// degrees, perfectly assortative.
	var edges [][2]NodeID
	for _, e := range completeEdges(4) {
		edges = append(edges, [2]NodeID{e[0] + 3, e[1] + 3})
	}
	g := undirected(7, append(completeEdges(3), edges...)...)
	if r := g.assortativity(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("clique-pair assortativity = %v, want 1", r)
	}
	if undirected(3).assortativity() != 0 {
		t.Fatal("empty graph assortativity")
	}
}

// hasLoop reports a provider loop the way Validate does.
func hasLoop(t *Topology) bool { return len(customersFirst(t)) < t.N() }

func TestHasCycle(t *testing.T) {
	if hasLoop(hierarchy(4, [2]NodeID{0, 1}, [2]NodeID{0, 2}, [2]NodeID{1, 3}, [2]NodeID{2, 3})) {
		t.Fatal("DAG reported cyclic")
	}
	if !hasLoop(hierarchy(3, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 0})) {
		t.Fatal("3-cycle not detected")
	}
	if !hasLoop(hierarchy(1, [2]NodeID{0, 0})) {
		t.Fatal("self-loop not detected")
	}
}

// Property: on random hierarchies built by only adding links old→new, there
// is no provider loop; adding any back link new→old that closes a path
// makes one.
func TestPropertyDAGAcyclic(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(30)
		g := lists(n)
		for v := 1; v < n; v++ {
			k := 1 + src.Intn(3)
			for i := 0; i < k; i++ {
				addTransit(g, NodeID(src.Intn(v)), NodeID(v))
			}
		}
		if hasLoop(g) {
			return false
		}
		// Close a cycle: pick an existing link u→v and add v→u.
		for u := range g.Nodes {
			if c := g.Nodes[u].Customers; len(c) > 0 {
				addTransit(g, c[0], NodeID(u))
				return hasLoop(g)
			}
		}
		return true
	}
	if err := quick.Check(func(s uint64) bool { return f(s ^ r.Uint64()) }, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges:
// |d(u) - d(v)| <= 1 for every edge {u,v} in the same component.
func TestPropertyBFSEdgeConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(50)
		var edges [][2]NodeID
		for i := n + src.Intn(2*n); i > 0; i-- {
			u, v := src.Intn(n), src.Intn(n)
			if u != v {
				edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
			}
		}
		g := undirected(n, edges...)
		d := g.BFSDistances(0)
		for u := NodeID(0); int(u) < n; u++ {
			for _, v := range g.neighbors(u) {
				du, dv := d[u], d[v]
				if (du < 0) != (dv < 0) {
					return false // edge across reachability boundary
				}
				if du >= 0 && dv >= 0 && du-dv > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClustering(b *testing.B) {
	src := rng.New(1)
	n := 2000
	var edges [][2]NodeID
	for i := 0; i < 4*n; i++ {
		u, v := src.Intn(n), src.Intn(n)
		if u != v {
			edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
		}
	}
	g := undirected(n, edges...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.clustering()
	}
}

func BenchmarkBFS(b *testing.B) {
	src := rng.New(2)
	n := 5000
	var edges [][2]NodeID
	for i := 1; i < n; i++ {
		edges = append(edges, [2]NodeID{NodeID(src.Intn(i)), NodeID(i)})
	}
	g := undirected(n, edges...)
	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSDistancesInto(0, dist, queue)
	}
}
