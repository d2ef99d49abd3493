package topology

import "math"

// Stats summarizes the structural properties the paper reports for its
// Baseline topologies (§3): node mix, multihoming degrees, peering degrees,
// clustering and average path length.
type Stats struct {
	N           int
	Counts      [4]int // indexed by NodeType
	Transit     int    // number of customer-provider links
	Peering     int    // number of peering links
	MeanMHD     [4]float64
	MeanPeerDeg [4]float64
	Clustering  float64
	// Assortativity is Newman's degree correlation; the Internet (and our
	// instances) are disassortative (negative).
	Assortativity float64
	// AvgPathLength is the mean shortest-path hop count over the plain
	// undirected view (sampled when sampleSources > 0).
	AvgPathLength float64
	MaxDegree     int
}

// ComputeStats measures t. sampleSources bounds the number of BFS sources
// used for the average path length (0 = exact, all nodes). Sources are the
// first nodes of each type round-robin so every tier is represented.
func ComputeStats(t *Topology, sampleSources int) Stats {
	s := Stats{N: t.N(), Counts: t.CountByType()}
	s.Transit, s.Peering = t.Edges()

	var mhdSum, peerSum [4]int
	for i := range t.Nodes {
		n := &t.Nodes[i]
		mhdSum[n.Type] += n.MHD()
		peerSum[n.Type] += len(n.Peers)
		if d := n.Degree(); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	for _, typ := range NodeTypes {
		if c := s.Counts[typ]; c > 0 {
			s.MeanMHD[typ] = float64(mhdSum[typ]) / float64(c)
			s.MeanPeerDeg[typ] = float64(peerSum[typ]) / float64(c)
		}
	}

	a := t.CSR()
	s.Clustering = a.clustering()
	s.Assortativity = a.assortativity()
	s.AvgPathLength = a.averagePathLength(pathSources(t.N(), sampleSources))
	return s
}

// pathSources returns every node when sampleSources is 0 or covers them
// all, else a deterministic stratified sample: nodes spaced evenly through
// the ID range, which interleaves the tiers (IDs are assigned T, M, CP, C).
func pathSources(n, sampleSources int) []NodeID {
	if sampleSources <= 0 || sampleSources > n {
		sampleSources = n
	}
	sources := make([]NodeID, 0, sampleSources)
	for i := 0; len(sources) < sampleSources; i += n / sampleSources {
		sources = append(sources, NodeID(i))
	}
	return sources
}

// DegreeCCDF returns the complementary CDF of the total node degree, for
// checking the power-law property: for each degree d present, P(Degree >= d)
// as parallel slices, degrees ascending.
func DegreeCCDF(t *Topology) (degrees []int, ccdf []float64) {
	a := t.CSR()
	n := a.N()
	if n == 0 {
		return nil, nil
	}
	remaining := n
	for d, c := range a.degreeHistogram() {
		if c == 0 {
			continue
		}
		degrees = append(degrees, d)
		ccdf = append(ccdf, float64(remaining)/float64(n))
		remaining -= c
	}
	return degrees, ccdf
}

// degreeHistogram returns counts[d] = number of nodes with degree d.
func (a *Adjacency) degreeHistogram() []int {
	maxDeg := 0
	for id := NodeID(0); int(id) < a.N(); id++ {
		maxDeg = max(maxDeg, a.Degree(id))
	}
	counts := make([]int, maxDeg+1)
	for id := NodeID(0); int(id) < a.N(); id++ {
		counts[a.Degree(id)]++
	}
	return counts
}

// BFSDistances returns the hop distance from src to every node, with -1 for
// unreachable nodes.
func (a *Adjacency) BFSDistances(src NodeID) []int32 {
	dist := make([]int32, a.N())
	a.BFSDistancesInto(src, dist, make([]NodeID, 0, a.N()))
	return dist
}

// BFSDistancesInto is BFSDistances writing into caller-provided storage:
// dist must have length N; queue is scratch of any length (its capacity is
// grown as needed). Distances do not depend on the order of a row.
func (a *Adjacency) BFSDistancesInto(src NodeID, dist []int32, queue []NodeID) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for k := 0; k < len(queue); k++ {
		u := queue[k]
		for _, v := range a.neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
}

// clustering returns the average local clustering coefficient over nodes
// of degree >= 2 (the convention of the Internet topology literature,
// matching the paper's "about 0.15" measurement: degree-0/1 nodes have no
// neighbor pairs, so including them as zeros would only dilute the measure
// with the stub population). A node's coefficient is the fraction of pairs
// of its neighbors that are themselves adjacent.
func (a *Adjacency) clustering() float64 {
	n := a.N()
	// mark[v] == u means v is a neighbor of the node u being processed.
	mark := make([]NodeID, n)
	for i := range mark {
		mark[i] = None
	}
	eligible := 0
	sum := 0.0
	for u := NodeID(0); int(u) < n; u++ {
		nb := a.neighbors(u)
		k := len(nb)
		if k < 2 {
			continue
		}
		eligible++
		for _, v := range nb {
			mark[v] = u
		}
		// Each neighbor-neighbor edge is counted twice, once from each side.
		links := 0
		for _, v := range nb {
			for _, w := range a.neighbors(v) {
				if w != u && mark[w] == u {
					links++
				}
			}
		}
		sum += float64(links) / float64(k*(k-1))
	}
	if eligible == 0 {
		return 0
	}
	return sum / float64(eligible)
}

// averagePathLength returns the mean hop distance over the reachable
// ordered pairs (src, v), src in sources, by one BFS per source; it is exact
// when sources covers all nodes. Unreachable pairs are excluded.
func (a *Adjacency) averagePathLength(sources []NodeID) float64 {
	n := a.N()
	if n < 2 || len(sources) == 0 {
		return 0
	}
	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	var total, pairs int64
	for _, src := range sources {
		a.BFSDistancesInto(src, dist, queue)
		for _, d := range dist {
			if d > 0 {
				total += int64(d)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(total) / float64(pairs)
}

// assortativity returns the Pearson correlation of degrees across edges
// (Newman's r). The AS-level Internet is strongly disassortative (r < 0):
// high-degree providers connect predominantly to low-degree stubs. Returns
// 0 for graphs with no edges or no degree variance. The sums are exact
// integers, so the result does not depend on the order of the slots.
func (a *Adjacency) assortativity() float64 {
	var m, sumXY, sumX, sumY, sumX2, sumY2 int64
	for u := NodeID(0); int(u) < a.N(); u++ {
		du := int64(a.Degree(u))
		for _, v := range a.neighbors(u) {
			// Each undirected edge contributes both (du,dv) and (dv,du),
			// which symmetrizes the correlation as Newman prescribes.
			dv := int64(a.Degree(v))
			sumXY += du * dv
			sumX += du
			sumY += dv
			sumX2 += du * du
			sumY2 += dv * dv
			m++
		}
	}
	if m == 0 {
		return 0
	}
	fm, fX, fY := float64(m), float64(sumX), float64(sumY)
	num := float64(sumXY)/fm - (fX/fm)*(fY/fm)
	den := math.Sqrt((float64(sumX2)/fm - (fX/fm)*(fX/fm)) * (float64(sumY2)/fm - (fY/fm)*(fY/fm)))
	if den == 0 {
		return 0
	}
	return num / den
}
