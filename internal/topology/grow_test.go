package topology

import "testing"

// growParams returns a baseline-shaped parameter set at size n for growth
// tests, with a fixed tier-1 clique so sizes are growth-compatible.
func growParams(n int, seed uint64) Params {
	fn := float64(n)
	nT := 5
	nM := int(0.15 * fn)
	nCP := int(0.05 * fn)
	return Params{
		N: n, Regions: 5, Seed: seed,
		NT: nT, NM: nM, NCP: nCP, NC: n - nT - nM - nCP,
		DM: 2 + 2.5*fn/10000, DCP: 2 + 1.5*fn/10000, DC: 1 + 5*fn/100000,
		PM: 1 + 2*fn/10000, PCPM: 0.2 + 2*fn/10000, PCPCP: 0.05 + 5*fn/100000,
		TM: 0.375, TCP: 0.375, TC: 0.125,
		MaxTProvidersPerM: Unlimited, MaxMProviders: Unlimited,
		MSpread: 0.20, CPSpread: 0.05,
	}
}

// TestGrowPreservesPrefix verifies the growth contract: every pre-existing
// node keeps its ID, type, regions and all of its links; new links touching
// old nodes only ever lead to new nodes.
func TestGrowPreservesPrefix(t *testing.T) {
	small := MustGenerate(growParams(400, 11))
	big := MustGrow(small, growParams(1000, 12))

	if big.N() != 1000 {
		t.Fatalf("grown topology has %d nodes, want 1000", big.N())
	}
	if err := big.Validate(); err != nil {
		t.Fatalf("grown topology invalid: %v", err)
	}
	oldN := NodeID(small.N())
	for i := range small.Nodes {
		o, g := &small.Nodes[i], &big.Nodes[i]
		if o.Type != g.Type || o.Regions != g.Regions || o.ID != g.ID {
			t.Fatalf("node %d changed identity under growth", i)
		}
		// Old links are a prefix of the grown lists (growth only appends),
		// and appended links lead exclusively to new nodes.
		checkPrefix := func(name string, old, grown []NodeID) {
			if len(grown) < len(old) {
				t.Fatalf("node %d lost %s links under growth", i, name)
			}
			for k, v := range old {
				if grown[k] != v {
					t.Fatalf("node %d %s[%d] changed %d -> %d under growth", i, name, k, v, grown[k])
				}
			}
			for _, v := range grown[len(old):] {
				if v < oldN {
					t.Fatalf("node %d gained a %s link to pre-existing node %d", i, name, v)
				}
			}
		}
		checkPrefix("provider", o.Providers, g.Providers)
		checkPrefix("customer", o.Customers, g.Customers)
		checkPrefix("peer", o.Peers, g.Peers)
	}
	// Growth must not mutate the source.
	if err := small.Validate(); err != nil {
		t.Fatalf("source topology mutated by growth: %v", err)
	}
}

// TestGrowChain grows twice (n → n′ → n″), checking each step validates and
// type counts land exactly on the requested mix.
func TestGrowChain(t *testing.T) {
	topo := MustGenerate(growParams(300, 21))
	for _, n := range []int{700, 1500} {
		p := growParams(n, uint64(n))
		topo = MustGrow(topo, p)
		if err := topo.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		c := topo.CountByType()
		if c[T] != p.NT || c[M] != p.NM || c[CP] != p.NCP || c[C] != p.NC {
			t.Fatalf("n=%d: type mix %v, want T=%d M=%d CP=%d C=%d", n, c, p.NT, p.NM, p.NCP, p.NC)
		}
	}
}

// TestGrowRejectsIncompatible exercises the compatibility checks.
func TestGrowRejectsIncompatible(t *testing.T) {
	topo := MustGenerate(growParams(400, 31))
	shrink := growParams(400, 32)
	shrink.NM-- // fewer M nodes than present
	shrink.NC++
	if _, err := Grow(topo, shrink); err == nil {
		t.Fatal("Grow accepted a shrinking node mix")
	}
	clique := growParams(1000, 33)
	clique.NT++ // tier-1 clique is frozen
	clique.NC--
	if _, err := Grow(topo, clique); err == nil {
		t.Fatal("Grow accepted a changed tier-1 clique")
	}
	regions := growParams(1000, 34)
	regions.Regions = 6
	if _, err := Grow(topo, regions); err == nil {
		t.Fatal("Grow accepted a changed region count")
	}
}
