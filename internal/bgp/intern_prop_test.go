package bgp

import (
	"fmt"
	"testing"

	"bgpchurn/internal/rng"
	"bgpchurn/internal/topology"
)

// Property tier for the interned RIB: the hash-consing bijection
// (intern(p) == intern(q) ⟺ p.Equal(q)), canonical-storage identity, and
// the engine-level invariance that relabeling nodes (a graph isomorphism)
// leaves churn counts unchanged.

// pathKey renders path content as a map key.
func pathKey(p Path) string {
	b := make([]byte, 0, 4*len(p))
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// TestInternHashConsingProperty drives the intern table with a randomized
// path workload against a reference map, asserting the hash-consing
// bijection both ways: equal content ⟺ equal PathID, with exact storage
// accounting (no duplicate slab copies) and pointer-identical canonical
// paths.
func TestInternHashConsingProperty(t *testing.T) {
	it := newInternTable()
	r := rng.New(0xfeedface)
	byContent := make(map[string]PathID)
	byID := make(map[PathID]string)
	var wantBytes uint64

	// A small ID pool and short lengths force frequent duplicates, and
	// 40k iterations force several hash-table growths (3/4 load of 1<<10
	// initial buckets is passed early).
	for i := 0; i < 40000; i++ {
		n := 1 + r.Intn(12)
		p := make(Path, n)
		for k := range p {
			p[k] = topology.NodeID(r.Intn(300))
		}
		canon, id := it.intern(p)
		if id == NoPath {
			t.Fatalf("intern of non-empty path returned NoPath")
		}
		if !canon.Equal(p) {
			t.Fatalf("canonical path %v differs from interned content %v", canon, p)
		}
		key := pathKey(p)
		if prev, ok := byContent[key]; ok {
			if id != prev {
				t.Fatalf("equal content interned twice with different IDs %d and %d", prev, id)
			}
		} else {
			if other, clash := byID[id]; clash {
				t.Fatalf("distinct contents %x and %x collided on ID %d", other, key, id)
			}
			byContent[key], byID[id] = id, key
			wantBytes += uint64(4 * n)
		}
		// Round-trip and canonical identity: every lookup of the same ID
		// returns the identical backing memory, making Equal O(1).
		got := it.path(id)
		if !got.Equal(p) || &got[0] != &canon[0] {
			t.Fatalf("path(%d) is not the canonical storage of %v", id, p)
		}
		if it.lenOf(id) != n {
			t.Fatalf("lenOf(%d) = %d, want %d", id, it.lenOf(id), n)
		}
	}
	if it.len() != len(byContent) {
		t.Fatalf("table holds %d entries, reference has %d distinct paths", it.len(), len(byContent))
	}
	if got := it.bytesStored(); got != wantBytes {
		t.Fatalf("bytesStored = %d, want %d (duplicate content leaked into slabs)", got, wantBytes)
	}
	// The nil path maps to NoPath on both sides.
	if p, id := it.intern(nil); p != nil || id != NoPath {
		t.Fatalf("intern(nil) = (%v, %d), want (nil, NoPath)", p, id)
	}
	if it.path(NoPath) != nil {
		t.Fatal("path(NoPath) is not nil")
	}
}

// TestInternPrependEquivalence checks that prepend — the engine's hot-path
// constructor hashing the virtual sequence [first, tail...] without
// materializing it — agrees exactly with interning the materialized slice,
// including when the tail is itself canonical slab storage.
func TestInternPrependEquivalence(t *testing.T) {
	it := newInternTable()
	r := rng.New(0xabcdef)
	tail := Path(nil)
	for i := 0; i < 5000; i++ {
		first := topology.NodeID(r.Intn(200))
		c1, id1 := it.prepend(first, tail)
		full := append(Path{first}, tail...)
		c2, id2 := it.intern(full)
		if id1 != id2 {
			t.Fatalf("prepend(%d, %v) minted ID %d but intern(%v) minted %d", first, tail, id1, full, id2)
		}
		if &c1[0] != &c2[0] {
			t.Fatalf("prepend and intern returned different canonical storage for %v", full)
		}
		// Grow a random chain: sometimes extend the canonical result,
		// sometimes restart from scratch.
		if len(c1) < 30 && r.Intn(4) != 0 {
			tail = c1
		} else {
			tail = nil
		}
	}
}

// TestInternOversizedPath exercises the dedicated-slab branch: a path longer
// than one slab must still intern, round-trip, and leave previously handed
// out canonical paths untouched.
func TestInternOversizedPath(t *testing.T) {
	it := newInternTable()
	small, smallID := it.intern(Path{1, 2, 3})
	big := make(Path, internSlabElems+17)
	for i := range big {
		big[i] = topology.NodeID(i)
	}
	canon, id := it.intern(big)
	if !canon.Equal(big) || !it.path(id).Equal(big) {
		t.Fatal("oversized path does not round-trip")
	}
	if got := it.path(smallID); !got.Equal(small) || &got[0] != &small[0] {
		t.Fatal("interning an oversized path moved existing canonical storage")
	}
	if _, id2 := it.intern(big); id2 != id {
		t.Fatal("oversized path re-interned under a new ID")
	}
}

// permuteTopology relabels every node through perm, preserving neighbor
// list order (so CSR slot j of node i maps to slot j of node perm[i]).
func permuteTopology(t *topology.Topology, perm []topology.NodeID) *topology.Topology {
	nt := &topology.Topology{
		Nodes:      make([]topology.Node, len(t.Nodes)),
		NumRegions: t.NumRegions,
		Seed:       t.Seed,
	}
	mapIDs := func(ids []topology.NodeID) []topology.NodeID {
		out := make([]topology.NodeID, len(ids))
		for i, v := range ids {
			out[i] = perm[v]
		}
		return out
	}
	for i := range t.Nodes {
		src := &t.Nodes[i]
		nt.Nodes[perm[i]] = topology.Node{
			ID:        perm[i],
			Type:      src.Type,
			Regions:   src.Regions,
			Providers: mapIDs(src.Providers),
			Customers: mapIDs(src.Customers),
			Peers:     mapIDs(src.Peers),
		}
	}
	return nt
}

// TestRelabelingIsomorphismInvariance verifies that churn is a property of
// the topology's shape, not its labeling: running the same C-event on a
// node-relabeled copy yields identical counters under the relabeling —
// although relabeling changes every path's content, and with it every
// PathID and intern-table bucket.
//
// Two pieces of engine state are label-dependent by design and must be
// transported under the permutation for the comparison to be exact: the
// deterministic tie-break hashes (hashID mixes the raw neighbor ID) and the
// per-node RNG streams (seeded in node-index order). The test overwrites
// both with shared values so the two runs differ only in labels.
//
// The two runs keep the names the test ledgers outside the repository know
// them by: compact=true is the one with the RIB invariant checker on.
func TestRelabelingIsomorphismInvariance(t *testing.T) {
	base := topology.MustGenerate(growTestParams(400, 71))
	n := base.N()
	perm := make([]topology.NodeID, n)
	for i := range perm {
		perm[i] = topology.NodeID(i)
	}
	rng.New(99).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	relabeled := permuteTopology(base, perm)
	if err := relabeled.Validate(); err != nil {
		t.Fatalf("relabeled topology invalid: %v", err)
	}

	origin := base.NodesOfType(topology.C)[3]
	for _, check := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", check), func(t *testing.T) {
			cfg := DefaultConfig(5)
			cfg.Check = check
			a := MustNew(base, cfg)
			b := MustNew(relabeled, cfg)

			// Transport the label-dependent state: slot j of node i in the
			// base network corresponds to slot j of node perm[i] in the
			// relabeled one (permuteTopology preserves list order).
			master := rng.New(0x5eed)
			for i := range a.nodes {
				na, nb := &a.nodes[i], &b.nodes[perm[i]]
				for j, s := range a.sessions(na) {
					b.sessions(nb)[j].tie = s.tie
				}
				s := master.Uint64()
				na.src.Reseed(s)
				nb.src.Reseed(s)
			}

			runCEvent := func(net *Network, o topology.NodeID) {
				net.Originate(o, 1)
				net.Run()
				net.ResetCounters()
				net.WithdrawPrefix(o, 1)
				net.Run()
				net.Originate(o, 1)
				net.Run()
			}
			runCEvent(a, origin)
			runCEvent(b, perm[origin])

			if a.TotalUpdates() != b.TotalUpdates() || a.PeakUpdateRate() != b.PeakUpdateRate() {
				t.Fatalf("network-wide churn differs: %d/%d vs %d/%d",
					a.TotalUpdates(), a.PeakUpdateRate(), b.TotalUpdates(), b.PeakUpdateRate())
			}
			if a.Now() != b.Now() {
				t.Fatalf("convergence times differ: %d vs %d", a.Now(), b.Now())
			}
			for i := 0; i < n; i++ {
				ca := a.Counters(topology.NodeID(i))
				cb := b.Counters(perm[i])
				if fmt.Sprint(ca) != fmt.Sprint(cb) {
					t.Fatalf("node %d (relabeled %d): counters differ:\n%v\n%v", i, perm[i], ca, cb)
				}
			}
		})
	}
}
