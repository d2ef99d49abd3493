package topology

import "sort"

// Shard partitioning over the CSR adjacency: contiguous node ranges with
// approximately equal session (slot) counts, for barrier-synchronized
// parallel simulation. Per-node simulation work is dominated by the number
// of sessions (updates received and sent scale with degree), so balancing
// the Offsets prefix sum balances shard load far better than balancing node
// counts — the tier-1 clique nodes carry thousands of sessions each.
//
// The partition affects performance only, never results: the simulation's
// windowed executor admits cross-shard messages in a canonical order that
// is independent of which shard a node lands in (see DESIGN.md,
// "Sharded DES").

// ShardRanges splits the node index space [0, N) into s contiguous ranges
// with approximately equal total degree, returning s+1 boundaries: shard k
// owns nodes [bounds[k], bounds[k+1]). Boundaries are nondecreasing; a
// range may be empty when s exceeds what the degree distribution can
// balance (e.g. one node holding most sessions).
func (a *Adjacency) ShardRanges(s int) []int32 {
	if s < 1 {
		s = 1
	}
	n := len(a.Offsets) - 1
	bounds := make([]int32, s+1)
	total := int64(a.Offsets[n])
	for k := 1; k < s; k++ {
		target := total * int64(k) / int64(s)
		// First node index whose prefix sum of slots reaches the target.
		bounds[k] = int32(sort.Search(n, func(i int) bool {
			return int64(a.Offsets[i+1]) > target
		}))
	}
	bounds[s] = int32(n)
	return bounds
}
