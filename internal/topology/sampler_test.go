package topology

import (
	"testing"

	"bgpchurn/internal/rng"
)

// samplerModel is the linear-scan reference the Fenwick sampler is
// differential-tested against: the same membership, weights, exclusions and
// region filtering, drawn by the exact weightedPick procedure (one Intn of
// the eligible total, then a creation-order prefix scan).
type samplerModel struct {
	ids      []NodeID
	regions  []RegionSet
	weight   []int64
	excluded map[NodeID]bool
}

func newSamplerModel() *samplerModel {
	return &samplerModel{excluded: make(map[NodeID]bool)}
}

func (m *samplerModel) insert(id NodeID, rs RegionSet, w int64) {
	m.ids = append(m.ids, id)
	m.regions = append(m.regions, rs)
	m.weight = append(m.weight, w)
}

func (m *samplerModel) addWeight(id NodeID, delta int64) {
	for i, mid := range m.ids {
		if mid == id {
			m.weight[i] += delta
			return
		}
	}
}

func (m *samplerModel) total(q RegionSet) int64 {
	var total int64
	for i, mid := range m.ids {
		if !m.excluded[mid] && m.regions[i].Overlaps(q) {
			total += m.weight[i]
		}
	}
	return total
}

func (m *samplerModel) draw(r *rng.Source, q RegionSet) NodeID {
	total := m.total(q)
	if total <= 0 {
		return None
	}
	target := int64(r.Intn(int(total)))
	var acc int64
	for i, mid := range m.ids {
		if m.excluded[mid] || !m.regions[i].Overlaps(q) {
			continue
		}
		acc += m.weight[i]
		if target < acc {
			return mid
		}
	}
	panic("unreachable: target below total")
}

// samplerTotal is the total the sampler's next draw with query q would
// pass to Intn: its per-tree totals over the trees overlapping q, net of
// the excluded weight in them.
func samplerTotal(s *paSampler, q RegionSet) int64 { return s.eligible(q) }

// TestSamplerMatchesLinearModel drives the Fenwick sampler and the linear
// model through a long random op schedule — inserts across several region
// sets, weight growth, overlapping exclusion rounds, draws under varying
// region queries — and demands identical totals and identical picks from
// identical RNG streams at every step.
func TestSamplerMatchesLinearModel(t *testing.T) {
	const cap = 600
	ctl := rng.New(99)               // op schedule
	rS, rM := rng.New(7), rng.New(7) // lockstep draw streams
	s := newPASampler(cap, cap)
	m := newSamplerModel()
	regionSets := []RegionSet{
		RegionSet(0).Add(0),
		RegionSet(0).Add(1),
		RegionSet(0).Add(0).Add(1),
		RegionSet(0).Add(2),
		RegionSet(0).Add(1).Add(2),
	}
	n, draws := 0, 0
	for step := 0; step < 20000; step++ {
		switch op := ctl.Intn(10); {
		case op < 3 && n < cap: // insert
			rs := regionSets[ctl.Intn(len(regionSets))]
			w := int64(ctl.Intn(4)) // weight 0 members must be unselectable
			s.insert(NodeID(n), rs, w)
			m.insert(NodeID(n), rs, w)
			n++
		case op < 5 && n > 0: // weight growth (degrees only increase)
			id := NodeID(ctl.Intn(n))
			d := int64(1 + ctl.Intn(3))
			s.addWeight(id, d)
			m.addWeight(id, d)
		case op < 7 && n > 0: // exclude, possibly redundantly
			id := NodeID(ctl.Intn(n))
			s.exclude(id)
			m.excluded[id] = true
		default: // draw + end the exclusion round
			q := regionSets[ctl.Intn(len(regionSets))]
			if st, mt := samplerTotal(s, q), m.total(q); st != mt {
				t.Fatalf("step %d: eligible total diverges: sampler %d, model %d", step, st, mt)
			}
			got, want := s.draw(rS, q), m.draw(rM, q)
			if got != want {
				t.Fatalf("step %d: draw diverges: sampler %v, model %v", step, got, want)
			}
			s.restoreAll()
			for id := range m.excluded {
				delete(m.excluded, id)
			}
			draws++
		}
	}
	if n == 0 || draws < 1000 {
		t.Fatalf("schedule degenerate: n=%d draws=%d", n, draws)
	}
	// Bulk rounds, shaped like M-peering's: up to a few hundred exclusions
	// in random order with duplicates, among them the round's own node,
	// then several draws. After each pick the own node and the picked node
	// gain weight and the picked node is excluded, so later draws subtract
	// weights that changed after the first draw summed the exclusions; a
	// few draws switch the query, which re-sums them.
	bulk := rng.New(101)
	for round := 0; round < 300; round++ {
		self := NodeID(bulk.Intn(n))
		s.exclude(self)
		m.excluded[self] = true
		for k := bulk.Intn(400); k > 0; k-- {
			id := NodeID(bulk.Intn(n))
			s.exclude(id)
			m.excluded[id] = true
		}
		q := regionSets[bulk.Intn(len(regionSets))]
		for j := bulk.Intn(12); j >= 0; j-- {
			dq := q
			if bulk.Intn(4) == 0 {
				dq = regionSets[bulk.Intn(len(regionSets))]
			}
			if st, mt := samplerTotal(s, dq), m.total(dq); st != mt {
				t.Fatalf("bulk round %d: eligible total diverges: sampler %d, model %d", round, st, mt)
			}
			got, want := s.draw(rS, dq), m.draw(rM, dq)
			if got != want {
				t.Fatalf("bulk round %d: draw diverges: sampler %v, model %v", round, got, want)
			}
			if got == None {
				break
			}
			for _, id := range []NodeID{self, got} {
				s.addWeight(id, 1)
				m.addWeight(id, 1)
			}
			s.exclude(got)
			m.excluded[got] = true
		}
		s.restoreAll()
		clear(m.excluded)
	}
	// The two RNG streams must have consumed identical draw counts: one more
	// draw from each proves they are still aligned.
	if a, b := rS.Intn(1<<30), rM.Intn(1<<30); a != b {
		t.Fatalf("RNG streams desynchronized: %d vs %d", a, b)
	}
}

// TestSamplerWeightUpdateWhileExcluded pins the addWeight/exclude contract:
// an excluded node's weight updates take effect at once, in its tree too,
// and draws keep subtracting its current weight until restoreAll.
func TestSamplerWeightUpdateWhileExcluded(t *testing.T) {
	q := RegionSet(0).Add(0)
	s := newPASampler(8, 8)
	s.insert(0, q, 5)
	s.insert(1, q, 3)
	s.exclude(0)
	if got := samplerTotal(s, q); got != 3 {
		t.Fatalf("total with node 0 excluded = %d, want 3", got)
	}
	s.addWeight(0, 4) // while excluded: authoritative only
	if got := samplerTotal(s, q); got != 3 {
		t.Fatalf("total after excluded-weight update = %d, want 3", got)
	}
	s.restoreAll()
	if got := samplerTotal(s, q); got != 12 {
		t.Fatalf("total after restore = %d, want 12 (5+4+3)", got)
	}
	// Double exclusion in one round must subtract once.
	s.exclude(1)
	s.exclude(1)
	if got := samplerTotal(s, q); got != 9 {
		t.Fatalf("total after double exclusion = %d, want 9", got)
	}
	s.restoreAll()
	if got := samplerTotal(s, q); got != 12 {
		t.Fatalf("total after second restore = %d, want 12", got)
	}
}

// TestSamplerEpochWrap forces the uint32 exclusion epoch to wrap and
// verifies stale marks do not leak into the next round as exclusions.
func TestSamplerEpochWrap(t *testing.T) {
	q := RegionSet(0).Add(0)
	s := newPASampler(4, 4)
	s.insert(0, q, 1)
	s.insert(1, q, 1)
	s.exclude(0)
	s.restoreAll()       // node 0's mark now holds the stale epoch 1
	s.epoch = ^uint32(0) // jump to the last epoch before the wrap
	s.exclude(1)
	if got := samplerTotal(s, q); got != 1 {
		t.Fatalf("total = %d, want 1 (only node 1 excluded this round)", got)
	}
	s.restoreAll() // wraps: marks cleared, epoch reset
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	if got := samplerTotal(s, q); got != 2 {
		t.Fatalf("total after wrap-restore = %d, want 2", got)
	}
	s.exclude(0)
	if got := samplerTotal(s, q); got != 1 {
		t.Fatalf("stale mark suppressed a fresh exclusion: total = %d, want 1", got)
	}
}

// TestDescendMatchesLinearScan checks the multi-tree Fenwick descent
// against a prefix scan for every target in range, across random weight
// layouts and non-power-of-two capacities — with no exclusions, and with
// random ones split between the summed positions and the drift.
func TestDescendMatchesLinearScan(t *testing.T) {
	ctl := rng.New(5)
	for _, cap := range []int{1, 2, 3, 7, 8, 13, 64, 100} {
		for trial := 0; trial < 20; trial++ {
			nTrees := 1 + ctl.Intn(3)
			trees := make([]fenwick, nTrees)
			weights := make([]int64, cap)
			for i := range trees {
				trees[i] = newFenwick(cap)
			}
			for pos := 0; pos < cap; pos++ {
				w := int64(ctl.Intn(5))
				trees[ctl.Intn(nTrees)].add(pos, w)
				weights[pos] = w
			}
			// Exclude about a third of the positions. A summed position's
			// below holds part of its weight and the drift the rest; a
			// drifting position is wholly in the drift.
			x := &exclusions{below: []int64{0}}
			net := append([]int64(nil), weights...)
			for pos, w := range weights {
				if ctl.Intn(3) != 0 {
					continue
				}
				summed, part := ctl.Intn(2) == 0, int64(0)
				if summed {
					part = int64(ctl.Intn(int(w) + 1))
					x.pos = append(x.pos, int32(pos))
					x.below = append(x.below, x.below[len(x.below)-1]+part)
				}
				if rest := w - part; rest != 0 || !summed {
					x.drift = append(x.drift, int32(pos))
					x.driftW = append(x.driftW, rest)
				}
				net[pos] = 0
			}
			high := highBit(cap)
			for _, c := range []struct {
				x  *exclusions
				ws []int64
			}{{&exclusions{}, weights}, {x, net}} {
				var total int64
				for _, w := range c.ws {
					total += w
				}
				for target := int64(0); target < total; target++ {
					var acc int64
					want := -1
					for pos, w := range c.ws {
						acc += w
						if target < acc {
							want = pos
							break
						}
					}
					if got := descend(trees, high, cap, c.x, target); got != want {
						t.Fatalf("cap=%d trial=%d target=%d excluded=%v: descend=%d, scan=%d",
							cap, trial, target, len(c.x.pos)+len(c.x.drift), got, want)
					}
				}
			}
		}
	}
}

// TestRegionBucketsCandidates checks the bucket merge against the naive
// pool filter: same members, same (pool) order, duplicates collapsed.
func TestRegionBucketsCandidates(t *testing.T) {
	const regions = 4
	ctl := rng.New(23)
	nodes := make([]Node, 200)
	var pool []NodeID
	for i := range nodes {
		rs := RegionSet(0).Add(ctl.Intn(regions))
		if ctl.Intn(3) == 0 {
			rs = rs.Add(ctl.Intn(regions))
		}
		nodes[i] = Node{ID: NodeID(i), Regions: rs}
		if ctl.Intn(2) == 0 {
			pool = append(pool, NodeID(i))
		}
	}
	b := newRegionBuckets(regions, pool, nodes)
	queries := []RegionSet{
		RegionSet(0).Add(0),
		RegionSet(0).Add(1).Add(3),
		RegionSet(0).Add(0).Add(1).Add(2).Add(3),
		RegionSet(0).Add(2),
	}
	for _, q := range queries {
		var want []NodeID
		for _, id := range pool {
			if nodes[id].Regions.Overlaps(q) {
				want = append(want, id)
			}
		}
		got := b.candidates(q, nil)
		if len(got) != len(want) {
			t.Fatalf("query %v: %d candidates, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %v: candidates[%d] = %v, want %v", q, i, got[i], want[i])
			}
		}
	}
}
