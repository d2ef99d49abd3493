package bgp

import "bgpchurn/internal/topology"

// NodeCounters is the per-node measurement snapshot for one window.
type NodeCounters struct {
	// Received is the total number of updates processed.
	Received uint64
	// Announcements and Withdrawals partition Received by kind.
	Announcements uint64
	Withdrawals   uint64
	// Sent is the number of updates this node transmitted.
	Sent uint64
	// RouteChanges is the number of Loc-RIB best-route changes (the
	// node's path-exploration depth over the window).
	RouteChanges uint64
	// Suppressions is the number of dampening suppression episodes.
	Suppressions uint64
	// PerNeighbor is the number of updates received from each neighbor
	// slot, parallel to NeighborRelations.
	PerNeighbor []uint32
}

// Counters returns a snapshot of node id's counters for the current
// measurement window.
func (net *Network) Counters(id topology.NodeID) NodeCounters {
	nd := &net.nodes[id]
	per := recvCounts(make([]uint32, 0, nd.deg), net.sessions(nd))
	return NodeCounters{
		Received:      uint64(nd.recvAnnounce) + uint64(nd.recvWithdraw),
		Announcements: uint64(nd.recvAnnounce),
		Withdrawals:   uint64(nd.recvWithdraw),
		Sent:          uint64(nd.sentUpdates),
		RouteChanges:  uint64(nd.bestChanges),
		Suppressions:  uint64(nd.suppressions),
		PerNeighbor:   per,
	}
}

// PerNeighborCounts returns node id's per-slot receive counts without
// allocating: the counters live inside the session rows, so they are
// gathered into a buffer owned by the engine that stays valid only until the
// next PerNeighborCounts call and must not be modified. Use together with
// NeighborRelations for the Eq.-1 factor decomposition.
func (net *Network) PerNeighborCounts(id topology.NodeID) []uint32 {
	net.recvScratch = recvCounts(net.recvScratch[:0], net.sessions(&net.nodes[id]))
	return net.recvScratch
}

// recvCounts appends the receive counter of every row to dst.
func recvCounts(dst []uint32, rows []session) []uint32 {
	for j := range rows {
		dst = append(dst, rows[j].recv)
	}
	return dst
}

// NeighborRelations returns node id's per-slot neighbor relations in slot
// order, as a view of the topology's shared CSR adjacency: zero-alloc, owned
// by the topology, must not be modified.
func (net *Network) NeighborRelations(id topology.NodeID) []topology.Relation {
	return net.nbrRels(&net.nodes[id])
}

// RIBSize returns the number of prefixes node id currently has a selected
// route for (the Loc-RIB size, the paper's other scalability axis).
func (net *Network) RIBSize(id topology.NodeID) int {
	n := 0
	net.nodes[id].prefixes.ForEach(func(_ Prefix, ps *prefixState) {
		if ps.bestSlot != noneSlot {
			n++
		}
	})
	return n
}

// AdjRIBInSize returns the total number of routes node id holds across all
// neighbors' Adj-RIB-Ins — the memory-relevant table size.
func (net *Network) AdjRIBInSize(id topology.NodeID) int {
	n := 0
	nd := &net.nodes[id]
	nd.prefixes.ForEach(func(_ Prefix, ps *prefixState) {
		for _, s := range net.rib(nd, ps) {
			if s.id != NoPath {
				n++
			}
		}
	})
	return n
}

// RouteChanges returns node id's Loc-RIB best-route change count for the
// current window without allocating (see NodeCounters.RouteChanges).
func (net *Network) RouteChanges(id topology.NodeID) uint64 {
	return uint64(net.nodes[id].bestChanges)
}

// TotalUpdates returns the number of updates processed network-wide during
// the current measurement window.
func (net *Network) TotalUpdates() uint64 {
	var n uint64
	for _, sh := range net.shards {
		n += sh.totalUpdates
	}
	return n
}

// PeakUpdateRate returns the largest number of updates processed
// network-wide within any single virtual second of the current window —
// the burstiness measure motivating the paper's concern that routers must
// absorb peaks far above daily means: the maximum, over the seconds of the
// window, of the shards' per-second counts summed (see netShard.rate).
func (net *Network) PeakUpdateRate() uint64 {
	var peak uint64
	for i := 0; ; i++ {
		var sum uint64
		live := false
		for _, sh := range net.shards {
			if i < len(sh.rate) {
				sum, live = sum+uint64(sh.rate[i]), true
			}
		}
		if !live {
			return peak
		}
		peak = max(peak, sum)
	}
}

// ResetCounters zeroes every measurement counter, starting a new window.
// Routing state and timers are untouched: the paper resets counting after
// the initial prefix propagation, then measures the C-event.
func (net *Network) ResetCounters() {
	for _, sh := range net.shards {
		sh.resetRate()
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		nd.recvAnnounce, nd.recvWithdraw, nd.sentUpdates = 0, 0, 0
		nd.bestChanges, nd.suppressions = 0, 0
	}
	for k := range net.sess {
		net.sess[k].recv = 0
	}
}
