package topology

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// baselineParams mirrors the paper's Table 1 for tests. The scenario
// package owns the canonical version; duplicating it here keeps this
// package's tests self-contained.
func baselineParams(n int, seed uint64) Params {
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
		MSpread: 0.2, CPSpread: 0.05,
	}
}

func TestGenerateBaselineValid(t *testing.T) {
	topo := MustGenerate(baselineParams(1000, 1))
	if err := topo.Validate(); err != nil {
		t.Fatalf("baseline topology invalid: %v", err)
	}
	counts := topo.CountByType()
	if counts[T] != 5 || counts[M] != 150 || counts[CP] != 50 || counts[C] != 795 {
		t.Fatalf("node mix = %v", counts)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := baselineParams(500, 42)
	a := MustGenerate(p)
	b := MustGenerate(p)
	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed produced different topologies")
	}
	p.Seed = 43
	c := MustGenerate(p)
	var bufC bytes.Buffer
	if _, err := c.WriteTo(&bufC); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestGenerateMHDNearTarget(t *testing.T) {
	p := baselineParams(2000, 7)
	topo := MustGenerate(p)
	s := ComputeStats(topo, 0)
	// Per-type mean MHD should be close to the configured averages. The
	// provider-slot loop can drop slots only when candidates run out, which
	// is rare at this density, so a 10% tolerance is generous.
	if math.Abs(s.MeanMHD[M]-p.DM) > 0.1*p.DM {
		t.Errorf("mean M MHD %v, want ~%v", s.MeanMHD[M], p.DM)
	}
	if math.Abs(s.MeanMHD[CP]-p.DCP) > 0.1*p.DCP {
		t.Errorf("mean CP MHD %v, want ~%v", s.MeanMHD[CP], p.DCP)
	}
	if math.Abs(s.MeanMHD[C]-p.DC) > 0.1*p.DC {
		t.Errorf("mean C MHD %v, want ~%v", s.MeanMHD[C], p.DC)
	}
	if s.MeanMHD[T] != 0 {
		t.Errorf("T nodes have providers: %v", s.MeanMHD[T])
	}
}

func TestGenerateStructuralProperties(t *testing.T) {
	topo := MustGenerate(baselineParams(2000, 11))
	s := ComputeStats(topo, 200)
	// Paper §3: clustering ~0.15, far above a random graph's; path length
	// stays around 4. Use loose bands — these are qualitative properties.
	if s.Clustering < 0.05 {
		t.Errorf("clustering = %v, expected strong clustering (>0.05)", s.Clustering)
	}
	if s.AvgPathLength < 2.5 || s.AvgPathLength > 5.5 {
		t.Errorf("average path length = %v, expected ~4", s.AvgPathLength)
	}
	// Heavy-tailed degrees: the maximum degree should vastly exceed the mean.
	mean := 2 * float64(s.Transit+s.Peering) / float64(s.N)
	if float64(s.MaxDegree) < 5*mean {
		t.Errorf("max degree %d not heavy-tailed vs mean %v", s.MaxDegree, mean)
	}
	// The AS graph is disassortative: hubs attach to stubs.
	if s.Assortativity >= 0 {
		t.Errorf("assortativity = %v, expected negative (disassortative)", s.Assortativity)
	}
}

func TestGenerateTreeScenario(t *testing.T) {
	p := baselineParams(800, 3)
	p.DM, p.DCP, p.DC = 1, 1, 1
	topo := MustGenerate(p)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		if n.Type != T && len(n.Providers) != 1 {
			t.Fatalf("TREE: node %d (%v) has %d providers", n.ID, n.Type, len(n.Providers))
		}
	}
}

func TestGenerateNoPeering(t *testing.T) {
	p := baselineParams(600, 5)
	p.PM, p.PCPM, p.PCPCP = 0, 0, 0
	topo := MustGenerate(p)
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		if n.Type != T && len(n.Peers) != 0 {
			t.Fatalf("NO-PEERING: node %d (%v) has peers", n.ID, n.Type)
		}
	}
}

func TestGenerateProviderCaps(t *testing.T) {
	// PREFER-TOP style: at most one M provider anywhere.
	p := baselineParams(800, 9)
	p.MaxMProviders = 1
	topo := MustGenerate(p)
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		mProv := 0
		for _, pr := range n.Providers {
			if topo.Nodes[pr].Type == M {
				mProv++
			}
		}
		if mProv > 1 {
			t.Fatalf("node %d has %d M providers, cap is 1", n.ID, mProv)
		}
	}

	// PREFER-MIDDLE style: stubs never use T, M nodes at most one T provider.
	p = baselineParams(800, 13)
	p.TCP, p.TC = 0, 0
	p.MaxTProvidersPerM = 1
	topo = MustGenerate(p)
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		tProv := 0
		for _, pr := range n.Providers {
			if topo.Nodes[pr].Type == T {
				tProv++
			}
		}
		if n.Type == M && tProv > 1 {
			t.Fatalf("M node %d has %d T providers, cap is 1", n.ID, tProv)
		}
	}
}

func TestGenerateNoMiddle(t *testing.T) {
	// NO-MIDDLE: nM = 0; stubs must attach to T regardless of probT.
	p := baselineParams(400, 17)
	extra := p.NM
	p.NM = 0
	p.NC += extra
	topo := MustGenerate(p)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		for _, pr := range n.Providers {
			if topo.Nodes[pr].Type != T {
				t.Fatalf("NO-MIDDLE: node %d has non-T provider %d", n.ID, pr)
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.NT = 0 },
		func(p *Params) { p.NC = -1 },
		func(p *Params) { p.NC++ },
		func(p *Params) { p.Regions = 0 },
		func(p *Params) { p.Regions = 33 },
		func(p *Params) { p.DM = -1 },
		func(p *Params) { p.PM = -0.5 },
		func(p *Params) { p.TM = 1.5 },
		func(p *Params) { p.MSpread = 2 },
		func(p *Params) { p.MaxMProviders = -2 },
	}
	for i, mutate := range bad {
		p := baselineParams(100, 1)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	p := baselineParams(100, 1)
	if err := p.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestInCustomerTree(t *testing.T) {
	// Hand-built: 0(T) -> 1(M) -> 2(C); 0 -> 3(C).
	topo := &Topology{NumRegions: 1, Nodes: []Node{
		{ID: 0, Type: T, Regions: 1, Customers: []NodeID{1, 3}},
		{ID: 1, Type: M, Regions: 1, Providers: []NodeID{0}, Customers: []NodeID{2}},
		{ID: 2, Type: C, Regions: 1, Providers: []NodeID{1}},
		{ID: 3, Type: C, Regions: 1, Providers: []NodeID{0}},
	}}
	if !topo.InCustomerTree(0, 2) {
		t.Fatal("2 should be in 0's customer tree")
	}
	if !topo.InCustomerTree(1, 2) {
		t.Fatal("2 should be in 1's customer tree")
	}
	if topo.InCustomerTree(1, 3) {
		t.Fatal("3 is not in 1's customer tree")
	}
	if topo.InCustomerTree(2, 0) {
		t.Fatal("customer tree is downward only")
	}
	if topo.InCustomerTree(0, 0) {
		t.Fatal("a node is not in its own customer tree")
	}
}

func TestRelationAndNeighbors(t *testing.T) {
	topo := MustGenerate(baselineParams(200, 31))
	a := topo.CSR()
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		if a.Degree(NodeID(i)) != n.Degree() {
			t.Fatalf("node %d: %d neighbors vs degree %d", i, a.Degree(NodeID(i)), n.Degree())
		}
		lo, hi := a.Row(NodeID(i))
		for k := lo; k < hi; k++ {
			if topo.Relation(NodeID(i), a.IDs[k]) != a.Rels[k] {
				t.Fatalf("node %d: relation mismatch for neighbor %d", i, a.IDs[k])
			}
		}
	}
	if topo.Relation(0, 0) != NotConnected {
		t.Fatal("self relation should be NotConnected")
	}
}

func TestRelationInvert(t *testing.T) {
	if Customer.Invert() != Provider || Provider.Invert() != Customer {
		t.Fatal("customer/provider inversion broken")
	}
	if Peer.Invert() != Peer {
		t.Fatal("peer inversion broken")
	}
	if NotConnected.Invert() != NotConnected {
		t.Fatal("NotConnected inversion broken")
	}
}

func TestRegionSet(t *testing.T) {
	var s RegionSet
	s = s.Add(0).Add(3)
	if !s.HasRegion(0) || !s.HasRegion(3) || s.HasRegion(1) {
		t.Fatal("RegionSet membership broken")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if !s.Overlaps(RegionSet(0).Add(3)) {
		t.Fatal("overlap missed")
	}
	if s.Overlaps(RegionSet(0).Add(2)) {
		t.Fatal("false overlap")
	}
}

func TestNodeTypeStrings(t *testing.T) {
	for _, typ := range NodeTypes {
		if typ.String() == "" {
			t.Fatal("empty type string")
		}
	}
}

// Property: random parameter draws always yield a topology that passes the
// full invariant check.
func TestPropertyGeneratedTopologiesValid(t *testing.T) {
	f := func(seed uint64) bool {
		n := 100 + int(seed%400)
		p := baselineParams(n, seed)
		// Vary knobs with the seed to cover corners.
		switch seed % 5 {
		case 1:
			p.DM, p.DCP, p.DC = 1, 1, 1
		case 2:
			p.PM *= 3
		case 3:
			p.MaxMProviders = 1
		case 4:
			p.Regions = 1
		}
		topo, err := Generate(p)
		if err != nil {
			return false
		}
		return topo.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounts(t *testing.T) {
	topo := MustGenerate(baselineParams(500, 2))
	s := ComputeStats(topo, 100)
	if s.N != 500 {
		t.Fatalf("N = %d", s.N)
	}
	transit, peering := topo.Edges()
	if s.Transit != transit || s.Peering != peering {
		t.Fatal("edge counts disagree with Edges()")
	}
	// The T clique alone contributes NT*(NT-1)/2 peering links.
	if s.Peering < 5*4/2 {
		t.Fatalf("peering count %d below T clique size", s.Peering)
	}
}

func BenchmarkGenerate1000(b *testing.B) {
	p := baselineParams(1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		_ = MustGenerate(p)
	}
}

func BenchmarkGenerate5000(b *testing.B) {
	p := baselineParams(5000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		_ = MustGenerate(p)
	}
}
