package topology

import (
	"slices"

	"bgpchurn/internal/rng"
)

// paSampler is the accelerated preferential-attachment sampler: it draws
// one node from a candidate class (the tier-1 clique, or the M nodes) with
// probability proportional to a maintained per-node weight (degree+1),
// restricted to nodes whose region set overlaps a query set, with an
// explicit exclusion set (self, existing neighbors, customer-cone members)
// subtracted exactly.
//
// Draw-sequence equivalence with the linear scan it replaces (weightedPick
// of the reference generator, gen_reference_test.go at the module root) is
// the load-bearing property: a draw consumes exactly one
// rng.Intn(total) with the identical total (eligible weights minus excluded
// weights), and the selected node is the one where the cumulative weight —
// accumulated in class creation order over the same eligible set — first
// exceeds the drawn target. Both are achieved structurally:
//
//   - Candidates occupy dense positions in insertion (= creation) order.
//     One Fenwick tree exists per distinct RegionSet realized in the class;
//     every tree spans the full position space (positions belonging to
//     other sets hold weight zero), so a position-wise sum over the trees
//     whose set overlaps the query is exactly the prefix weight of the
//     region-eligible candidates in creation order.
//   - Exclusions never touch a tree. A draw subtracts the current weight
//     of the round's excluded positions in the eligible trees from the
//     total and, per descent step, the part inside the step's position
//     range from the range's tree sum (exclusions, fenwick.go). Totals and
//     prefix sums then match the linear scan's skip-the-excluded
//     enumeration term for term.
//
// The first draw of a round sums the exclusions once, in O(excluded); every
// draw costs O(sets·log cap) for the descent plus a walk over what the
// round changed since, against the linear scan's O(class size) per draw —
// the O(n²) term this file removes from generation.
type paSampler struct {
	cap  int // class capacity (positions), fixed at construction
	high int // highBit(cap), the descent's starting stride
	n    int // members inserted so far
	ids  []NodeID
	// posOf maps a NodeID to its class position, or -1. Indexed by node ID
	// over the full topology budget so membership tests are one load.
	posOf  []int32
	weight []int64 // per-position weight, excluded or not (the trees hold it too)
	treeOf []int32 // per-position index into sets/trees/totals
	sets   []RegionSet
	trees  []fenwick
	totals []int64
	// Exclusion state for the current draw round, deduplicated by an epoch
	// mark so a node excluded for two reasons (e.g. adjacent and in-cone)
	// is subtracted once. The round's first draw sums x for its query sumQ
	// (x.below turns non-empty); from then on changes go to x's drift.
	x     exclusions
	sumQ  RegionSet
	mark  []uint32
	epoch uint32
	elig  []fenwick // per-draw scratch: the trees overlapping the query
}

// newPASampler returns an empty sampler for a class of at most cap nodes
// drawn from a topology of at most nodeBudget nodes.
func newPASampler(nodeBudget, cap int) *paSampler {
	s := &paSampler{
		cap:    cap,
		high:   highBit(cap),
		ids:    make([]NodeID, cap),
		posOf:  make([]int32, nodeBudget),
		weight: make([]int64, cap),
		treeOf: make([]int32, cap),
		mark:   make([]uint32, cap),
		epoch:  1,
	}
	for i := range s.posOf {
		s.posOf[i] = -1
	}
	return s
}

// insert appends a node to the class with the given region set and weight.
// Positions are assigned in call order, which must be creation order — the
// enumeration order of the linear scan.
func (s *paSampler) insert(id NodeID, regions RegionSet, w int64) {
	pos := int32(s.n)
	s.n++
	s.ids[pos] = id
	s.posOf[id] = pos
	s.weight[pos] = w
	ti := -1
	for i, rs := range s.sets {
		if rs == regions {
			ti = i
			break
		}
	}
	if ti < 0 {
		ti = len(s.sets)
		s.sets = append(s.sets, regions)
		s.trees = append(s.trees, newFenwick(s.cap))
		s.totals = append(s.totals, 0)
	}
	s.treeOf[pos] = int32(ti)
	if w != 0 {
		s.trees[ti].add(int(pos), w)
		s.totals[ti] += w
	}
}

// addWeight applies delta to id's weight. Nodes outside the class are
// ignored, so link hooks can call it unconditionally for both endpoints.
// An excluded node's update lands in its tree too, and in the drift once
// the exclusions are summed, so draws keep subtracting its current weight.
func (s *paSampler) addWeight(id NodeID, delta int64) {
	p := s.posOf[id]
	if p < 0 {
		return
	}
	s.weight[p] += delta
	ti := s.treeOf[p]
	s.trees[ti].add(int(p), delta)
	s.totals[ti] += delta
	if len(s.x.below) > 0 && s.mark[p] == s.epoch {
		s.addDrift(p, delta)
	}
}

// exclude keeps id out of every draw until restoreAll. Nodes outside the
// class and already-excluded nodes are ignored. Before the round's first
// draw the exclusion joins x.pos, which sum sorts (in linear time when it
// arrives ascending); after it, the exclusion drifts.
func (s *paSampler) exclude(id NodeID) {
	p := s.posOf[id]
	if p < 0 || s.mark[p] == s.epoch {
		return
	}
	s.mark[p] = s.epoch
	if len(s.x.below) > 0 {
		s.addDrift(p, s.weight[p])
		return
	}
	s.x.pos = append(s.x.pos, p)
}

// addDrift records that the excluded weight at position p grew by w since
// the exclusions were summed. Only the trees a draw with sumQ sums count.
func (s *paSampler) addDrift(p int32, w int64) {
	if !s.sets[s.treeOf[p]].Overlaps(s.sumQ) {
		return
	}
	x := &s.x
	i, found := slices.BinarySearch(x.drift, p)
	if !found {
		x.drift = slices.Insert(x.drift, i, p)
		x.driftW = slices.Insert(x.driftW, i, 0)
	}
	x.driftW[i] += w
}

// sum folds the drift into the excluded positions, sorts them, and sums
// their current weights in the trees overlapping q.
func (s *paSampler) sum(q RegionSet) {
	x := &s.x
	x.pos = append(x.pos, x.drift...)
	slices.Sort(x.pos)
	x.pos = slices.Compact(x.pos) // a drift entry may repeat a position
	x.drift, x.driftW = x.drift[:0], x.driftW[:0]
	var w int64
	x.below = append(x.below[:0], 0)
	for _, p := range x.pos {
		if s.sets[s.treeOf[p]].Overlaps(q) {
			w += s.weight[p]
		}
		x.below = append(x.below, w)
	}
	s.sumQ = q
}

// restoreAll ends the exclusion round.
func (s *paSampler) restoreAll() {
	x := &s.x
	x.pos, x.below, x.drift, x.driftW = x.pos[:0], x.below[:0], x.drift[:0], x.driftW[:0]
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: every mark is stale, clear them
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
}

// eligible returns the total the next draw with query q passes to Intn:
// the summed weight of the trees overlapping q minus that of the excluded
// positions in them. It leaves those trees in elig, and the exclusions
// summed for q, for the descent.
func (s *paSampler) eligible(q RegionSet) int64 {
	s.elig = s.elig[:0]
	var total int64
	for i, rs := range s.sets {
		if rs.Overlaps(q) {
			s.elig = append(s.elig, s.trees[i])
			total += s.totals[i]
		}
	}
	if len(s.x.below) == 0 || q != s.sumQ {
		s.sum(q)
	}
	total -= s.x.below[len(s.x.pos)]
	for _, w := range s.x.driftW {
		total -= w
	}
	return total
}

// draw selects one node among the non-excluded members whose region set
// overlaps q, with probability proportional to weight. It consumes exactly
// one Intn(total) when the eligible weight is positive — the same single
// RNG draw as the linear scan — and returns None without touching the RNG
// when it is zero.
func (s *paSampler) draw(r *rng.Source, q RegionSet) NodeID {
	total := s.eligible(q)
	if total <= 0 {
		return None
	}
	target := int64(r.Intn(int(total)))
	return s.ids[descend(s.elig, s.high, s.cap, &s.x, target)]
}

// regionBuckets indexes a candidate pool (mIDs or cpIDs) by region so the
// uniform CP-peering phase enumerates only region-overlapping candidates.
// Buckets preserve pool order (creation order); for a multi-region query
// the buckets are merged by node ID — node IDs are assigned in creation
// order, so the merged stream reproduces the pool-order enumeration of the
// linear scan exactly, including for nodes present in two queried regions
// (deduplicated on merge).
type regionBuckets struct {
	buckets [][]NodeID
}

func newRegionBuckets(regions int, pool []NodeID, nodes []Node) *regionBuckets {
	b := &regionBuckets{buckets: make([][]NodeID, regions)}
	for _, id := range pool {
		rs := nodes[id].Regions
		for r := 0; r < regions; r++ {
			if rs.HasRegion(r) {
				b.buckets[r] = append(b.buckets[r], id)
			}
		}
	}
	return b
}

// candidates appends the pool members overlapping q to dst, in pool order.
func (b *regionBuckets) candidates(q RegionSet, dst []NodeID) []NodeID {
	var lists [][]NodeID
	for r := range b.buckets {
		if q.HasRegion(r) && len(b.buckets[r]) > 0 {
			lists = append(lists, b.buckets[r])
		}
	}
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	}
	// k-way merge ascending by ID with deduplication (a node in two queried
	// regions appears in both buckets).
	idx := make([]int, len(lists))
	for {
		best := -1
		var bestID NodeID
		for i, l := range lists {
			if idx[i] < len(l) {
				if best < 0 || l[idx[i]] < bestID {
					best, bestID = i, l[idx[i]]
				}
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, bestID)
		for i, l := range lists {
			for idx[i] < len(l) && l[idx[i]] == bestID {
				idx[i]++
			}
		}
	}
}
