package bgp

import (
	"math/rand"
	"testing"

	"bgpchurn/internal/topology"
)

// rowNet returns a network reduced to what the decision process reads — one
// node with a d-slot Adj-RIB-In row, the neighbor IDs behind it and a salt —
// with random relations and tie-breaks and no routes. Neighbor IDs are
// distinct, as in any topology. With forceTies, about half the slots share
// one top tie-break half, so equal ranks fall through to the full hashes.
func rowNet(r *rand.Rand, d int, forceTies bool) (*Network, *node) {
	net := &Network{
		sess: make([]session, d),
		adj:  &topology.Adjacency{IDs: make([]topology.NodeID, d)},
		salt: r.Uint64(),
	}
	shared := r.Uint32()
	for j, id := range r.Perm(4 * d)[:d] {
		net.adj.IDs[j] = topology.NodeID(id)
		tie := uint32(hashID(net.salt, topology.NodeID(id)) >> 32)
		if forceTies && r.Intn(2) == 0 {
			tie = shared
		}
		net.sess[j] = session{rank: uint64(r.Intn(3))<<rankRelShift | uint64(tie)}
	}
	nd := &node{deg: int32(d)}
	nd.prefixes.first.bestSlot = noneSlot
	return net, nd
}

// TestDecideAfterMatchesScan holds the one-row decision step to the full
// scan: random install sequences on rows of 1–900 slots, with path lengths
// from a small range (so ranks repeat), forced equal tie-break halves (so
// tieLess compares full hashes), NoPath installs and withdrawals aimed at
// the best row. After every install, decideAfter must pick what decide picks.
func TestDecideAfterMatchesScan(t *testing.T) {
	const sequences = 2000
	r := rand.New(rand.NewSource(30))
	for seq := 0; seq < sequences; seq++ {
		d := 1 + r.Intn(900)
		if seq%2 == 0 {
			d = 1 + r.Intn(12) // short rows meet the best row and noneSlot often
		}
		net, nd := rowNet(r, d, seq%3 != 0)
		ps := &nd.prefixes.first
		rows := net.rib(nd, ps)
		installs := 4 * d
		if installs > 200 {
			installs = 200
		}
		for step := 0; step < installs; step++ {
			w := int32(r.Intn(d))
			if ps.bestSlot >= 0 && r.Intn(4) == 0 {
				w = ps.bestSlot
			}
			id, plen := PathID(1+r.Intn(1<<20)), 1+r.Intn(4)
			if r.Intn(3) == 0 {
				id, plen = NoPath, 0
			}
			rows[w].install(id, plen)
			gotSlot, gotID := net.decideAfter(nd, ps, w)
			wantSlot, wantID := net.decide(nd, ps)
			if gotSlot != wantSlot || gotID != wantID {
				t.Fatalf("seq %d (d=%d) step %d: install %d (len %d) at slot %d over best %d: one-row step picks slot %d (path %d), scan picks slot %d (path %d)",
					seq, d, step, id, plen, w, ps.bestSlot, gotSlot, gotID, wantSlot, wantID)
			}
			ps.bestSlot, ps.bestID = wantSlot, wantID
		}
	}
}
