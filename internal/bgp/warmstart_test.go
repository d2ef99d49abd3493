package bgp

import (
	"testing"

	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

const wsPrefix Prefix = 1

// TestWarmStartMatchesDES is the warm-start soundness proof by exhaustive
// comparison: for several scenarios, sizes, seeds and origins, the state
// WarmStart installs must equal — field by field, at every node and on every
// session — the state a real DES initial-propagation flood converges to.
func TestWarmStartMatchesDES(t *testing.T) {
	scenarios := []scenario.Scenario{
		scenario.Baseline,      // full node mix, moderate peering
		scenario.DenseEdge,     // heavy edge peering: exercises stage B widely
		scenario.NoPeering,     // pure hierarchy: stages A and C only
		scenario.TransitClique, // dense transit multihoming
	}
	sizes := []int{1000, 3000}
	seeds := []uint64{1, 42}
	for _, sc := range scenarios {
		for _, n := range sizes {
			for _, seed := range seeds {
				topo, err := sc.Generate(n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", sc.Name, n, seed, err)
				}
				cNodes := topo.NodesOfType(topology.C)
				cold := MustNew(topo, DefaultConfig(seed))
				warm := MustNew(topo, DefaultConfig(seed))
				for k := 0; k < 3; k++ {
					origin := cNodes[k*len(cNodes)/3]
					label := sc.Name
					cold.Reset(seed)
					cold.Originate(origin, wsPrefix)
					cold.Run()
					warm.Reset(seed)
					warm.WarmStart(origin, wsPrefix)
					if err := warm.CheckConsistency(); err != nil {
						t.Fatalf("%s n=%d seed=%d origin=%d: warm state inconsistent: %v",
							label, n, seed, origin, err)
					}
					compareConverged(t, cold, warm, label, n, seed, origin)
					if t.Failed() {
						t.Fatalf("%s n=%d seed=%d origin=%d: warm state diverges from DES", label, n, seed, origin)
					}
				}
			}
		}
	}
}

// compareConverged asserts the warm network holds exactly the routing state
// the cold (DES-flooded) network converged to. A node the flood never
// touched, or touched only transiently, may hold an empty prefixState in the
// cold network where the warm one holds none: absent and empty are the same
// state.
func compareConverged(t *testing.T, cold, warm *Network, label string, n int, seed uint64, origin topology.NodeID) {
	t.Helper()
	if p := warm.Pending(); p != 0 {
		t.Errorf("warm network has %d pending events", p)
	}
	for i := range cold.nodes {
		cn, wn := &cold.nodes[i], &warm.nodes[i]
		cps := psOrEmpty(cn, wsPrefix)
		wps := psOrEmpty(wn, wsPrefix)
		if cps.selfOrigin != wps.selfOrigin {
			t.Errorf("node %d: selfOrigin cold=%v warm=%v", i, cps.selfOrigin, wps.selfOrigin)
		}
		if cps.bestSlot != wps.bestSlot {
			t.Errorf("node %d: bestSlot cold=%d warm=%d", i, cps.bestSlot, wps.bestSlot)
		}
		// PathIDs are private to a network's intern table: compare content.
		if c, w := cold.bestPath(cps), warm.bestPath(wps); !c.Equal(w) {
			t.Errorf("node %d: bestPath cold=%v warm=%v", i, c, w)
		}
		cRows, wRows := ribOrEmpty(cold, cn, cps), ribOrEmpty(warm, wn, wps)
		cIDs, cOut, wOut := cold.nbrIDs(cn), cold.out(cn), warm.out(wn)
		for j := range cIDs {
			cRib, wRib := cold.intern.path(cRows[j].id), warm.intern.path(wRows[j].id)
			if !cRib.Equal(wRib) {
				t.Errorf("node %d slot %d (from %d): Adj-RIB-In cold=%v warm=%v",
					i, j, cIDs[j], cRib, wRib)
			}
			cq, wq := &cOut[j], &wOut[j]
			if cLen, wLen := len(cq.pendingKeys(nil)), len(wq.pendingKeys(nil)); cLen != 0 || wLen != 0 {
				t.Errorf("node %d slot %d: queued updates on a converged network (cold=%d warm=%d)",
					i, j, cLen, wLen)
			}
			cID, cOn := cq.wire(wsPrefix)
			wID, wOn := wq.wire(wsPrefix)
			cSent, wSent := cold.intern.path(cID), warm.intern.path(wID)
			if cOn != wOn || !cSent.Equal(wSent) {
				t.Errorf("node %d slot %d (to %d): adj-rib-out cold=(%v,%v) warm=(%v,%v)",
					i, j, cIDs[j], cSent, cOn, wSent, wOn)
			}
		}
		// The cached advertisement body must agree whenever there is a route;
		// without one, a lazily-invalidated cache and an absent state are the
		// same observable state. So are a built and an unbuilt body at a node
		// that can export to nobody: a silent node (a sink other than the
		// origin) never reconciles, so the DES leaves its body unbuilt, and
		// WarmStart does not build it either — there the cache is compared by
		// what it must not be: valid.
		if cn.silent() != wn.silent() {
			t.Errorf("node %d: silent cold=%v warm=%v", i, cn.silent(), wn.silent())
		}
		if cn.silent() {
			if cps.fullValid || wps.fullValid {
				t.Errorf("node %d: silent, yet fullValid cold=%v warm=%v", i, cps.fullValid, wps.fullValid)
			}
		} else if cps.bestSlot != noneSlot {
			if !cps.fullValid || !wps.fullValid {
				t.Errorf("node %d: fullValid cold=%v warm=%v with a selected route",
					i, cps.fullValid, wps.fullValid)
			}
			if c, w := cold.intern.path(cps.fullID), warm.intern.path(wps.fullID); !c.Equal(w) {
				t.Errorf("node %d: full cold=%v warm=%v", i, c, w)
			}
		}
	}
}

// emptyPS is the canonical no-route state compared against absent entries.
var emptyPS = prefixState{bestSlot: noneSlot}

// psOrEmpty returns nd's state for f, or the empty state if absent.
func psOrEmpty(nd *node, f Prefix) *prefixState {
	if ps, ok := nd.prefixes.Get(f); ok {
		return ps
	}
	return &emptyPS
}

// ribOrEmpty returns the Adj-RIB-In rows of ps, all NoPath for emptyPS.
func ribOrEmpty(net *Network, nd *node, ps *prefixState) []session {
	if ps == &emptyPS {
		return make([]session, nd.deg)
	}
	return net.rib(nd, ps)
}

// TestWarmStartOriginState pins the origin's own state: self-originated,
// empty Adj-RIB-In (every path to the prefix ends at the origin, so
// sender-side loop suppression blocks all advertisements toward it), and the
// cached [origin] advertisement.
func TestWarmStartOriginState(t *testing.T) {
	topo, err := scenario.Baseline.Generate(1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	origin := topo.NodesOfType(topology.C)[0]
	net := MustNew(topo, DefaultConfig(9))
	net.WarmStart(origin, wsPrefix)
	nd := &net.nodes[origin]
	ps, ok := nd.prefixes.Get(wsPrefix)
	if !ok || !ps.selfOrigin || ps.bestSlot != selfSlot {
		t.Fatalf("origin state = %+v, ok=%v; want self-originated", ps, ok)
	}
	for j, s := range net.rib(nd, ps) {
		if s.id != NoPath {
			t.Errorf("origin Adj-RIB-In[%d] = %v; want none", j, net.intern.path(s.id))
		}
	}
	if full := net.intern.path(ps.fullID); !ps.fullValid || !full.Equal(Path{origin}) {
		t.Errorf("origin full = %v (valid=%v); want [%d]", full, ps.fullValid, origin)
	}
	if !net.HasRoute(origin, wsPrefix) {
		t.Error("origin has no route to its own prefix")
	}
}
