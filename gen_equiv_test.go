package bgpchurn

// Differential tier for the topology generator: the Fenwick samplers, shared
// customer cones and region-bucketed peering pools must reproduce the
// reference generator (gen_reference_test.go) bit for bit — same RNG draw
// sequence, same picks, hence the same Topology down to neighbor-list
// order. These tests compare complete topologies (every node field, every
// link, in order) for every growth scenario, for growth chains, at scale,
// and over random cases.

import (
	"fmt"
	"testing"

	"bgpchurn/internal/rng"
)

// requireEqualTopologies fails unless a and b are identical in every
// observable field, including neighbor-list order (the generator's output
// is order-deterministic, so any divergence is a draw-sequence bug).
func requireEqualTopologies(t *testing.T, label string, a, b *Topology) {
	t.Helper()
	if a.N() != b.N() || a.NumRegions != b.NumRegions || a.Seed != b.Seed {
		t.Fatalf("%s: shape differs: n=%d/%d regions=%d/%d seed=%d/%d",
			label, a.N(), b.N(), a.NumRegions, b.NumRegions, a.Seed, b.Seed)
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.ID != y.ID || x.Type != y.Type || x.Regions != y.Regions {
			t.Fatalf("%s: node %d identity differs: %+v vs %+v", label, i, x, y)
		}
		requireEqualIDs(t, label, i, "providers", x.Providers, y.Providers)
		requireEqualIDs(t, label, i, "customers", x.Customers, y.Customers)
		requireEqualIDs(t, label, i, "peers", x.Peers, y.Peers)
	}
}

func requireEqualIDs(t *testing.T, label string, node int, kind string, a, b []NodeID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: node %d has %d %s links vs %d", label, node, len(a), kind, len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("%s: node %d %s[%d] = %v vs %v", label, node, kind, k, a[k], b[k])
		}
	}
}

// requireGrowMatches grows small to p with GrowTopology and with the
// reference, demands equality and a valid result, and returns it.
func requireGrowMatches(t *testing.T, label string, small *Topology, p TopologyParams) *Topology {
	t.Helper()
	fast, err := GrowTopology(small, p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireEqualTopologies(t, label, fast, referenceGrow(small, p))
	if err := fast.Validate(); err != nil {
		t.Fatalf("%s: grown topology invalid: %v", label, err)
	}
	return fast
}

// TestGeneratorEquivalentAcrossScenarios generates every growth scenario at
// n ∈ {1000, 3000} under two independent seeds with the generator and the
// reference and demands full-topology equality.
func TestGeneratorEquivalentAcrossScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		for _, seed := range []uint64{3, 17} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.Name, seed), func(t *testing.T) {
				t.Parallel()
				sizes := []int{1000, 3000}
				if raceEnabled {
					// Generation is single-threaded; the race detector
					// adds no coverage, only a multiplier on the
					// reference's O(n²) cost.
					sizes = []int{1000}
				}
				for _, n := range sizes {
					p := sc.Params(n, seed)
					fast, err := GenerateTopology(p)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := referenceGenerate(p)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualTopologies(t, fmt.Sprintf("n=%d", n), fast, ref)
					if err := fast.Validate(); err != nil {
						t.Fatalf("n=%d: generated topology invalid: %v", n, err)
					}
				}
			})
		}
	}
}

// TestGeneratorPhaseTimings checks that an attached metrics hub records a
// per-phase wall-time histogram for every generation phase, and that the
// phase breakdown lands in the flat snapshot the run manifest captures.
func TestGeneratorPhaseTimings(t *testing.T) {
	m := NewObsMetrics()
	InstrumentTopologyGeneration(m)
	defer InstrumentTopologyGeneration(nil)
	if _, err := GenerateTopology(Baseline.Params(2000, 5)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap["bgpchurn_topo_gen_seconds_count"] != 1 {
		t.Fatalf("generation not observed: %v", snap["bgpchurn_topo_gen_seconds_count"])
	}
	var phaseSum float64
	for _, ph := range []string{"clique", "mnodes", "stubs", "cones", "mpeering", "cppeering"} {
		name := "bgpchurn_topo_phase_" + ph + "_seconds"
		if snap[name+"_count"] != 1 {
			t.Fatalf("phase %s not observed exactly once: %v", ph, snap[name+"_count"])
		}
		phaseSum += snap[name+"_sum"]
	}
	if total := snap["bgpchurn_topo_gen_seconds_sum"]; phaseSum > total {
		t.Fatalf("phase breakdown %v exceeds generation total %v", phaseSum, total)
	}
}

// TestGrowEquivalentAcrossScenarios chains growth 1000 → 3000 for every
// scenario: Grow must match the reference's growth of the same prefix.
func TestGrowEquivalentAcrossScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			const seed = 29
			p := sc.Params(3000, seed)
			if sc.Params(1000, seed).NT != p.NT {
				t.Skip("scenario scales the tier-1 clique with n; not growth-compatible")
			}
			small, err := GenerateTopology(sc.Params(1000, seed))
			if err != nil {
				t.Fatal(err)
			}
			requireGrowMatches(t, "grow 1000->3000", small, p)
		})
	}
}

// TestGrowDrawSequenceParityAtScale proves sampler parity beyond the
// differential sizes: at n = 20k — where the Fenwick samplers take thousands
// of draws per phase and the shared cones switch to their dense
// representation — direct generation and a 10k → 20k growth step must each
// match the reference.
func TestGrowDrawSequenceParityAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference at n=20k is quadratic; skipped in -short")
	}
	if raceEnabled {
		t.Skip("generation is single-threaded; -race only multiplies the reference's quadratic cost")
	}
	direct := Baseline.Params(20000, 47)
	fast, err := GenerateTopology(direct)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceGenerate(direct)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualTopologies(t, "direct 20k", fast, ref)
	small, err := GenerateTopology(Baseline.Params(10000, 47))
	if err != nil {
		t.Fatal(err)
	}
	grown := Baseline.Params(20000, 47) // same tier-1 clique as the prefix
	grown.Seed = 48
	requireGrowMatches(t, "grow 10k->20k", small, grown)
}

// genRandomCases is the number of random cases
// TestGeneratorEquivalentRandomized runs (fewer under -short and -race).
const genRandomCases = 300

// TestGeneratorEquivalentRandomized draws random cases — scenario, size
// n ∈ [150, 2500], seed — and demands that GenerateTopology match the
// reference. On growth-compatible scenarios each case then grows 0–2 random
// steps, up to n = 2500, each under a fresh seed, with Grow and the reference.
func TestGeneratorEquivalentRandomized(t *testing.T) {
	cases := genRandomCases
	if testing.Short() || raceEnabled {
		cases = 40
	}
	scenarios := Scenarios()
	src := rng.New(0x6e4e7a70c0ffee)
	for c := 0; c < cases; c++ {
		sc := scenarios[src.Intn(len(scenarios))]
		n := 150 + src.Intn(2351)
		seed := src.Uint64()
		p := sc.Params(n, seed)
		if p.Validate() != nil {
			// Some scenarios fix absolute node counts that small n cannot hold.
			sc, p = Baseline, Baseline.Params(n, seed)
		}
		steps := make([]TopologyParams, src.Intn(3))
		last := n
		for i := range steps {
			if last < 2500 {
				last += 1 + src.Intn(2500-last)
			}
			steps[i] = sc.Params(last, seed)
			steps[i].Seed = src.Uint64()
		}
		t.Run(fmt.Sprintf("case=%d", c), func(t *testing.T) {
			t.Parallel()
			label := fmt.Sprintf("%s n=%d seed=%#x", sc.Name, n, seed)
			topo, err := GenerateTopology(p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref, err := referenceGenerate(p)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			requireEqualTopologies(t, label, topo, ref)
			for _, q := range steps {
				if !growCompatible(p, q) {
					return // e.g. TRANSIT-CLIQUE scales the tier-1 clique with n
				}
				label += fmt.Sprintf(" -> n=%d seed=%#x", q.N, q.Seed)
				topo, p = requireGrowMatches(t, label, topo, q), q
			}
		})
	}
}

// growCompatible reports whether Grow accepts growing a topology generated
// from p to q: same regions and tier-1 clique, no type shrinking.
func growCompatible(p, q TopologyParams) bool {
	return p.Regions == q.Regions && p.NT == q.NT && q.NM >= p.NM && q.NCP >= p.NCP && q.NC >= p.NC
}
