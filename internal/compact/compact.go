// Package compact implements a landmark-based compact routing scheme
// (Cowen's universal stretch-3 scheme, the construction behind the
// Krioukov et al. proposal the paper's related-work section contrasts BGP
// with). It is the repository's comparator baseline: compact routing keeps
// per-node tables of size ~√(n log n) instead of BGP's Θ(n), at the cost
// of bounded path stretch and — the property the paper highlights — poor
// behavior under dynamics, because a landmark change invalidates state at
// every node in the network.
//
// The scheme, on an unweighted graph:
//
//   - a set L of landmarks is chosen;
//   - every node v stores a routing entry for every landmark, plus an
//     entry for every node in its cluster C(v) = { w : d(v,w) < d(w,L(w)) }
//     (nodes strictly closer to v than to their own nearest landmark);
//   - a packet for destination d is routed directly if d ∈ C(v) ∪ L,
//     otherwise toward d's nearest landmark L(d) and from there to d,
//     giving worst-case stretch 3.
package compact

import (
	"fmt"

	"bgpchurn/internal/rng"
	"bgpchurn/internal/topology"
)

// Scheme is a built compact-routing instance over one graph: a topology's
// CSR, read as a plain undirected graph.
type Scheme struct {
	g *topology.Adjacency
	// Landmarks lists the landmark node ids.
	Landmarks []int32
	// NearestLandmark[v] is L(v), v's closest landmark (ties broken by
	// lower landmark id); NearestDist[v] is d(v, L(v)).
	NearestLandmark []int32
	NearestDist     []int32
	// Clusters[v] holds C(v), sorted ascending.
	Clusters [][]int32
	// landmarkDist[i] is the BFS distance vector of Landmarks[i].
	landmarkDist [][]int32
	// landmarkIndex maps a landmark id to its position in Landmarks.
	landmarkIndex map[int32]int
}

// ChooseLandmarks picks k landmarks: the ⌈k/2⌉ highest-degree nodes (the
// Internet's natural landmarks are the well-connected core) plus uniformly
// random nodes for coverage, deduplicated. k is clamped to [1, n].
func ChooseLandmarks(g *topology.Adjacency, k int, seed uint64) []int32 {
	n := g.N()
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	chosen := make(map[int32]struct{}, k)
	var out []int32
	// Highest-degree half, by repeated max scan (k is small).
	degreeOrder := make([]int32, n)
	for i := range degreeOrder {
		degreeOrder[i] = int32(i)
	}
	// Partial selection sort for the top ⌈k/2⌉ degrees.
	top := (k + 1) / 2
	for i := 0; i < top; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if g.Degree(topology.NodeID(degreeOrder[j])) > g.Degree(topology.NodeID(degreeOrder[best])) {
				best = j
			}
		}
		degreeOrder[i], degreeOrder[best] = degreeOrder[best], degreeOrder[i]
		chosen[degreeOrder[i]] = struct{}{}
		out = append(out, degreeOrder[i])
	}
	r := rng.New(seed ^ 0x51a3bc96d07e84f1)
	for len(out) < k {
		v := int32(r.Intn(n))
		if _, ok := chosen[v]; ok {
			continue
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Build constructs the scheme for the given landmark set. Costs one BFS per
// landmark plus one BFS per node (for cluster membership): O(n·E) worst
// case, fine at the ≤10⁴ scale used here.
func Build(g *topology.Adjacency, landmarks []int32) (*Scheme, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("compact: empty graph")
	}
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("compact: no landmarks")
	}
	s := &Scheme{
		g:               g,
		Landmarks:       append([]int32(nil), landmarks...),
		NearestLandmark: make([]int32, n),
		NearestDist:     make([]int32, n),
		Clusters:        make([][]int32, n),
		landmarkIndex:   make(map[int32]int, len(landmarks)),
	}
	for i, l := range s.Landmarks {
		if int(l) < 0 || int(l) >= n {
			return nil, fmt.Errorf("compact: landmark %d out of range", l)
		}
		if _, dup := s.landmarkIndex[l]; dup {
			return nil, fmt.Errorf("compact: duplicate landmark %d", l)
		}
		s.landmarkIndex[l] = i
	}

	// Distance vector per landmark.
	s.landmarkDist = make([][]int32, len(s.Landmarks))
	for i, l := range s.Landmarks {
		s.landmarkDist[i] = s.g.BFSDistances(topology.NodeID(l))
	}

	// Nearest landmark per node.
	for v := 0; v < n; v++ {
		bestDist, bestL := int32(-1), int32(-1)
		for i, l := range s.Landmarks {
			d := s.landmarkDist[i][v]
			if d < 0 {
				continue
			}
			if bestDist < 0 || d < bestDist || (d == bestDist && l < bestL) {
				bestDist, bestL = d, l
			}
		}
		if bestDist < 0 {
			return nil, fmt.Errorf("compact: node %d cannot reach any landmark", v)
		}
		s.NearestDist[v] = bestDist
		s.NearestLandmark[v] = bestL
	}

	// Clusters: one BFS per node w, adding w to C(v) for every v with
	// d(w,v) < d(w, L(w)). Nodes co-located with their landmark (distance
	// 0, i.e. landmarks themselves) have empty "ball", contributing nothing.
	dist := make([]int32, n)
	queue := make([]topology.NodeID, 0, n)
	for w := 0; w < n; w++ {
		radius := s.NearestDist[w]
		if radius == 0 {
			continue
		}
		s.g.BFSDistancesInto(topology.NodeID(w), dist, queue)
		for v := 0; v < n; v++ {
			if v != w && dist[v] >= 0 && dist[v] < radius {
				s.Clusters[v] = append(s.Clusters[v], int32(w))
			}
		}
	}
	return s, nil
}

// TableSize returns the number of routing entries node v stores:
// all landmarks plus its cluster.
func (s *Scheme) TableSize(v int32) int {
	return len(s.Landmarks) + len(s.Clusters[v])
}

// MeanTableSize returns the average table size across nodes.
func (s *Scheme) MeanTableSize() float64 {
	total := 0
	for v := 0; v < s.g.N(); v++ {
		total += s.TableSize(int32(v))
	}
	return float64(total) / float64(s.g.N())
}

// MaxTableSize returns the largest table in the scheme.
func (s *Scheme) MaxTableSize() int {
	max := 0
	for v := 0; v < s.g.N(); v++ {
		if ts := s.TableSize(int32(v)); ts > max {
			max = ts
		}
	}
	return max
}

// RouteLength returns the hop count of the compact route from src to dst
// and whether it was direct (dst in src's cluster or a landmark) or via
// dst's landmark. Returns -1 for unreachable pairs.
func (s *Scheme) RouteLength(src, dst int32) (hops int32, direct bool) {
	if src == dst {
		return 0, true
	}
	srcDist := s.g.BFSDistances(topology.NodeID(src))
	return s.routeLengthWith(srcDist, src, dst)
}

func (s *Scheme) routeLengthWith(srcDist []int32, src, dst int32) (hops int32, direct bool) {
	if src == dst {
		return 0, true
	}
	// Direct entry: dst is a landmark or in src's cluster.
	if _, isL := s.landmarkIndex[dst]; isL {
		return srcDist[dst], true
	}
	for _, w := range s.Clusters[src] {
		if w == dst {
			return srcDist[dst], true
		}
	}
	// Otherwise via dst's nearest landmark.
	l := s.NearestLandmark[dst]
	li := s.landmarkIndex[l]
	toL := srcDist[l]
	if toL < 0 {
		return -1, false
	}
	return toL + s.landmarkDist[li][dst], false
}

// StretchStats summarizes routing stretch over sampled pairs.
type StretchStats struct {
	// Mean and Max are the multiplicative stretch (compact route length /
	// shortest path length) over the sample.
	Mean, Max float64
	// DirectFraction is the share of pairs routed without landmark detour.
	DirectFraction float64
	// Pairs is the number of sampled (src, dst) pairs.
	Pairs int
}

// MeasureStretch samples pairs (BFS from `sources` source nodes to all
// destinations) and returns stretch statistics. The theoretical guarantee
// of the scheme is Max <= 3.
func (s *Scheme) MeasureStretch(sources []int32) StretchStats {
	var st StretchStats
	var sum float64
	n := s.g.N()
	dist := make([]int32, n)
	queue := make([]topology.NodeID, 0, n)
	direct := 0
	for _, src := range sources {
		s.g.BFSDistancesInto(topology.NodeID(src), dist, queue)
		for dst := 0; dst < n; dst++ {
			if int32(dst) == src || dist[dst] <= 0 {
				continue
			}
			hops, wasDirect := s.routeLengthWith(dist, src, int32(dst))
			if hops < 0 {
				continue
			}
			stretch := float64(hops) / float64(dist[dst])
			sum += stretch
			if stretch > st.Max {
				st.Max = stretch
			}
			if wasDirect {
				direct++
			}
			st.Pairs++
		}
	}
	if st.Pairs > 0 {
		st.Mean = sum / float64(st.Pairs)
		st.DirectFraction = float64(direct) / float64(st.Pairs)
	}
	return st
}

// LandmarkFailureImpact quantifies the scheme's fragility under dynamics
// (the paper's "performs poorly under dynamic conditions"): the number of
// routing entries network-wide that a single failure of the given landmark
// invalidates — one entry at every node, plus the entire table-building
// state of every node whose nearest landmark it was.
func (s *Scheme) LandmarkFailureImpact(landmark int32) (entriesInvalidated int, nodesRehomed int) {
	if _, ok := s.landmarkIndex[landmark]; !ok {
		return 0, 0
	}
	n := s.g.N()
	entriesInvalidated = n // every node stores an entry per landmark
	for v := 0; v < n; v++ {
		if s.NearestLandmark[v] == landmark {
			nodesRehomed++
		}
	}
	return entriesInvalidated, nodesRehomed
}
