package topology_test

import (
	"fmt"
	"testing"

	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// TestMRelationsMatchCustomerCones holds the generator's M relation (the
// bitset rows behind M-M peering exclusion and CP peering eligibility) to a
// dense customer cone per node over random cases: scenarios in turn, so
// NO-MIDDLE (no M nodes, zero-width rows) and TREE are always covered, a
// size n ∈ [150, 3000] and a seed, then 0–2 growth steps up to n = 3000
// under fresh seeds, checked after every step.
func TestMRelationsMatchCustomerCones(t *testing.T) {
	const cases = 300
	scenarios := scenario.All()
	checked := map[string]int{}
	src := rng.New(0x3e1a7c0de)
	for c := 0; c < cases; c++ {
		sc := scenarios[c%len(scenarios)]
		n := 150 + src.Intn(2851)
		seed := src.Uint64()
		p := sc.Params(n, seed)
		if p.Validate() != nil {
			// Some scenarios fix absolute node counts that small n cannot hold.
			sc, p = scenario.Baseline, scenario.Baseline.Params(n, seed)
		}
		checked[sc.Name]++
		steps := make([]topology.Params, src.Intn(3))
		last := n
		for i := range steps {
			if last < 3000 {
				last += 1 + src.Intn(3000-last)
			}
			steps[i] = sc.Params(last, seed)
			steps[i].Seed = src.Uint64()
		}
		t.Run(fmt.Sprintf("case=%d", c), func(t *testing.T) {
			t.Parallel()
			label := fmt.Sprintf("%s n=%d seed=%#x", sc.Name, n, seed)
			topo, err := topology.Generate(p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := topology.CheckMRelation(topo); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, q := range steps {
				if q.Regions != p.Regions || q.NT != p.NT || q.NM < p.NM || q.NCP < p.NCP || q.NC < p.NC {
					return // e.g. TRANSIT-CLIQUE scales the tier-1 clique with n
				}
				label += fmt.Sprintf(" -> n=%d seed=%#x", q.N, q.Seed)
				if topo, err = topology.Grow(topo, q); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := topology.CheckMRelation(topo); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				p = q
			}
		})
	}
	for _, name := range []string{scenario.NoMiddle.Name, scenario.Tree.Name} {
		if checked[name] == 0 {
			t.Errorf("no case ran scenario %s", name)
		}
	}
}
