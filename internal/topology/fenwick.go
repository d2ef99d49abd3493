package topology

import "slices"

// fenwick is a binary-indexed tree over int64 weights, 1-based internally
// (index 0 is unused), supporting point updates and the prefix-descent
// select used by the accelerated preferential-attachment sampler. The tree
// length is fixed at construction: generator samplers know their class
// capacity (NT, NM) up front, so no resizing path exists.
type fenwick []int64

// newFenwick returns a tree over cap zero-weight positions.
func newFenwick(cap int) fenwick { return make(fenwick, cap+1) }

// add applies delta to the weight at 0-based position pos.
func (f fenwick) add(pos int, delta int64) {
	for i := pos + 1; i < len(f); i += i & -i {
		f[i] += delta
	}
}

// highBit returns the largest power of two <= n, or 0 for n <= 0. It is the
// starting stride of the prefix descent.
func highBit(n int) int {
	b := 1
	for b<<1 <= n {
		b <<= 1
	}
	if n <= 0 {
		return 0
	}
	return b
}

// exclusions is a draw round's excluded weight as the descent subtracts
// it. pos holds excluded positions in ascending order and below[i] the
// summed weight of pos[:i] when it was last summed; drift holds what
// changed since — positions excluded later, and weight added to excluded
// positions — in ascending order, with driftW[j] the weight at drift[j]
// not yet in below.
type exclusions struct {
	pos    []int32
	below  []int64
	drift  []int32
	driftW []int64
}

// descend finds the 0-based position of the element holding cumulative
// weight target across the given trees summed position-wise, net of the
// excluded weight x: the smallest position p such that the net prefix
// weight through p exceeds target. All trees must have the same capacity
// cap; high must be highBit(cap). The caller guarantees 0 <= target < net
// total weight, which implies the returned position holds a strictly
// positive net weight and is not excluded — exactly the element a linear
// scan skipping the excluded and accumulating weights in position order
// would stop at with the same target.
//
// A step tests tree index next = idx+bit, which covers the 0-based positions
// [idx, next); lo indexes the first excluded position >= idx, so the
// exclusions inside the step's range are pos[lo:hi]. A step's range lies
// inside the previous step's, so hi is searched for only up to end, the
// first excluded position past that range. The few drift entries are
// walked the same way, from dlo up to dend.
func descend(trees []fenwick, high, cap int, x *exclusions, target int64) int {
	idx, lo, end := 0, 0, len(x.pos)
	dlo, dend := 0, len(x.drift)
	var acc int64
	for bit := high; bit > 0; bit >>= 1 {
		next := idx + bit
		if next > cap {
			continue
		}
		var sum int64
		for _, t := range trees {
			sum += t[next]
		}
		d, _ := slices.BinarySearch(x.pos[lo:end], int32(next))
		hi := lo + d
		if hi > lo {
			sum -= x.below[hi] - x.below[lo]
		}
		dhi := dlo
		for ; dhi < dend && int(x.drift[dhi]) < next; dhi++ {
			sum -= x.driftW[dhi]
		}
		if acc+sum <= target {
			acc += sum
			idx, lo, dlo = next, hi, dhi
		} else {
			end, dend = hi, dhi
		}
	}
	return idx
}
