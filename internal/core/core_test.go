package core

import (
	"math"
	"testing"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

func testConfig(seed uint64, origins int) Config {
	return Config{Origins: origins, BGP: bgp.DefaultConfig(seed)}
}

func TestTreeScenarioTwoUpdatesAtT(t *testing.T) {
	// Paper §5.2: in the TREE model churn at T nodes is exactly two updates
	// per C-event (one withdraw, one announce), independent of size.
	topo, err := scenario.Tree.Generate(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCEvents(topo, testConfig(3, 15))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.U(topology.T); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("U(T) in TREE = %v, want exactly 2", got)
	}
	if res.ByType[topology.T].CI95 > 1e-9 {
		t.Fatalf("TREE U(T) should have zero variance, CI=%v", res.ByType[topology.T].CI95)
	}
}

func TestURelPartitionsU(t *testing.T) {
	topo, err := scenario.Baseline.Generate(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCEvents(topo, testConfig(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range topology.NodeTypes {
		tr := res.ByType[typ]
		sum := tr.ByRel[topology.Customer].U + tr.ByRel[topology.Peer].U + tr.ByRel[topology.Provider].U
		if math.Abs(sum-tr.U) > 1e-9*(1+tr.U) {
			t.Errorf("type %v: sum of relation U %v != U %v", typ, sum, tr.U)
		}
	}
}

func TestMFactorsMatchTopology(t *testing.T) {
	topo, err := scenario.Baseline.Generate(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCEvents(topo, testConfig(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	st := topology.ComputeStats(topo, 50)
	for _, typ := range topology.NodeTypes {
		gotMHD := res.ByType[typ].ByRel[topology.Provider].M
		if math.Abs(gotMHD-st.MeanMHD[typ]) > 1e-9 {
			t.Errorf("type %v: provider m-factor %v != topology MHD %v", typ, gotMHD, st.MeanMHD[typ])
		}
		gotPeer := res.ByType[typ].ByRel[topology.Peer].M
		if math.Abs(gotPeer-st.MeanPeerDeg[typ]) > 1e-9 {
			t.Errorf("type %v: peer m-factor %v != topology peer degree %v", typ, gotPeer, st.MeanPeerDeg[typ])
		}
	}
	// T nodes have no providers; stubs have no customers.
	if res.ByType[topology.T].ByRel[topology.Provider].M != 0 {
		t.Error("T nodes report providers")
	}
	if res.ByType[topology.C].ByRel[topology.Customer].M != 0 {
		t.Error("C nodes report customers")
	}
}

func TestProviderAlwaysAnnouncesToM(t *testing.T) {
	// Paper §4.2: q_d(M) is almost constant and always larger than 0.99 —
	// a provider always notifies its customer unless its path runs through
	// that customer.
	topo, err := scenario.Baseline.Generate(800, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCEvents(topo, testConfig(11, 20))
	if err != nil {
		t.Fatal(err)
	}
	if q := res.ByType[topology.M].ByRel[topology.Provider].Q; q < 0.95 {
		t.Fatalf("q_d(M) = %v, expected near 1", q)
	}
	// And e factors under NO-WRATE stay close to the minimum of 2.
	if e := res.ByType[topology.M].ByRel[topology.Provider].E; e < 2 || e > 3.5 {
		t.Fatalf("e_d(M) = %v, expected close to 2 under NO-WRATE", e)
	}
}

func TestChurnOrderingByType(t *testing.T) {
	// Fig. 4: transit providers see more churn than stubs.
	topo, err := scenario.Baseline.Generate(1000, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCEvents(topo, testConfig(13, 25))
	if err != nil {
		t.Fatal(err)
	}
	if res.U(topology.T) <= res.U(topology.C) {
		t.Fatalf("U(T)=%v <= U(C)=%v", res.U(topology.T), res.U(topology.C))
	}
	if res.U(topology.M) <= res.U(topology.C) {
		t.Fatalf("U(M)=%v <= U(C)=%v", res.U(topology.M), res.U(topology.C))
	}
	if res.TotalUpdates <= 0 || res.DownSeconds <= 0 || res.UpSeconds <= 0 {
		t.Fatalf("implausible aggregates: %+v", res)
	}
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	topo, err := scenario.Baseline.Generate(400, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := testConfig(17, 8)
	cfg1.Parallelism = 1
	cfg8 := testConfig(17, 8)
	cfg8.Parallelism = 8
	r1, err := RunCEvents(topo, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunCEvents(topo, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalUpdates != r8.TotalUpdates {
		t.Fatalf("parallelism changed results: %v vs %v", r1.TotalUpdates, r8.TotalUpdates)
	}
	for _, typ := range topology.NodeTypes {
		if r1.ByType[typ].U != r8.ByType[typ].U {
			t.Fatalf("type %v: %v vs %v", typ, r1.ByType[typ].U, r8.ByType[typ].U)
		}
	}
}

func TestOriginsCappedAtCNodeCount(t *testing.T) {
	topo, err := scenario.Baseline.Generate(200, 19)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(19, 100000)
	res, err := RunCEvents(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Origins != topo.CountByType()[topology.C] {
		t.Fatalf("origins = %d, want capped at C count %d", res.Origins, topo.CountByType()[topology.C])
	}
}

func TestPickOriginsDistinctAndDeterministic(t *testing.T) {
	pool := make([]topology.NodeID, 50)
	for i := range pool {
		pool[i] = topology.NodeID(i)
	}
	a := pickOrigins(pool, 20, 42)
	b := pickOrigins(pool, 20, 42)
	if len(a) != 20 {
		t.Fatalf("len = %d", len(a))
	}
	seen := map[topology.NodeID]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pickOrigins not deterministic")
		}
		if seen[a[i]] {
			t.Fatal("duplicate origin")
		}
		seen[a[i]] = true
	}
	c := pickOrigins(pool, 20, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds picked identical origins")
	}
}

func TestRunCEventsErrors(t *testing.T) {
	topo, err := scenario.Baseline.Generate(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, 0)
	if _, err := RunCEvents(topo, cfg); err == nil {
		t.Fatal("zero origins accepted")
	}
	cfg = testConfig(1, 5)
	cfg.BGP.MaxProcessingDelay = 0
	if _, err := RunCEvents(topo, cfg); err == nil {
		t.Fatal("invalid BGP config accepted")
	}
	// A topology without C nodes cannot host C-events.
	noC := &topology.Topology{NumRegions: 1, Nodes: []topology.Node{
		{ID: 0, Type: topology.T, Regions: 1},
	}}
	if _, err := RunCEvents(noC, testConfig(1, 5)); err == nil {
		t.Fatal("C-less topology accepted")
	}
}

func TestSweepSeries(t *testing.T) {
	sw, err := Sweep(scenario.Baseline, SweepConfig{
		Sizes:        []int{200, 400},
		TopologySeed: 7,
		Event:        testConfig(7, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Scenario != "BASELINE" || len(sw.Points) != 2 {
		t.Fatalf("sweep shape wrong: %+v", sw)
	}
	if xs := sw.Sizes(); xs[0] != 200 || xs[1] != 400 {
		t.Fatalf("sizes = %v", xs)
	}
	for _, series := range [][]float64{
		sw.SeriesU(topology.T),
		sw.SeriesURel(topology.T, topology.Customer),
		sw.SeriesM(topology.M, topology.Provider),
		sw.SeriesQ(topology.M, topology.Provider),
		sw.SeriesE(topology.M, topology.Provider),
	} {
		if len(series) != 2 {
			t.Fatalf("series length %d", len(series))
		}
	}
	if _, err := Sweep(scenario.Baseline, SweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestLinkEventExperiment(t *testing.T) {
	topo, err := scenario.Baseline.Generate(500, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(29, 10)
	cfg.Kind = LinkEvent
	res, err := RunCEvents(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUpdates <= 0 {
		t.Fatal("link events generated no churn")
	}
	// A link event at a (partially) multihomed edge disturbs less of the
	// network than a full C-event, which reaches every node twice.
	cEvent := testConfig(29, 10)
	cRes, err := RunCEvents(topo, cEvent)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUpdates > 3*cRes.TotalUpdates {
		t.Fatalf("L-event churn %v wildly exceeds C-event churn %v", res.TotalUpdates, cRes.TotalUpdates)
	}
	if CEvent.String() != "C-event" || LinkEvent.String() != "L-event" {
		t.Fatal("event kind names")
	}
}

func TestPathExplorationAndPeakMetrics(t *testing.T) {
	topo, err := scenario.Baseline.Generate(600, 31)
	if err != nil {
		t.Fatal(err)
	}
	noW, err := RunCEvents(topo, Config{Origins: 8, BGP: bgp.DefaultConfig(31)})
	if err != nil {
		t.Fatal(err)
	}
	w, err := RunCEvents(topo, Config{Origins: 8, BGP: bgp.WRATEConfig(31)})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range topology.NodeTypes {
		// Every node changes its best route at least twice per C-event
		// (loss + recovery).
		if noW.PathExploration[typ] < 1.9 {
			t.Errorf("type %v: exploration %v below the loss+recovery minimum", typ, noW.PathExploration[typ])
		}
	}
	// WRATE prolongs withdrawal propagation, so exploration cannot shrink.
	if w.PathExploration[topology.C] < noW.PathExploration[topology.C] {
		t.Errorf("WRATE reduced exploration at stubs: %v < %v",
			w.PathExploration[topology.C], noW.PathExploration[topology.C])
	}
	if noW.PeakRate <= 0 {
		t.Fatal("peak update rate not measured")
	}
	// The peak second concentrates a large share of the event's updates:
	// burstiness, the paper's §1 motivation.
	if noW.PeakRate < noW.TotalUpdates/100 {
		t.Errorf("peak rate %v implausibly low vs total %v", noW.PeakRate, noW.TotalUpdates)
	}
}

func TestSpreadSummaries(t *testing.T) {
	topo, err := scenario.Baseline.Generate(500, 37)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCEvents(topo, testConfig(37, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range topology.NodeTypes {
		s := res.Spread[typ]
		if s.Max < s.P90 || s.P90 < s.Median {
			t.Errorf("type %v: disordered spread %+v", typ, s)
		}
		// The spread's mean must equal the headline U (same data).
		if diff := s.Mean - res.U(typ); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("type %v: spread mean %v != U %v", typ, s.Mean, res.U(typ))
		}
	}
	// Heavy-tailed degrees => the busiest T node sees far more than the
	// median T node... at least some variation must exist among stubs too.
	if res.Spread[topology.C].Max <= res.Spread[topology.C].Median {
		t.Error("no variation across C nodes, implausible")
	}
}

func TestWrateIncreasesChurn(t *testing.T) {
	// §6 in miniature at fixed size: WRATE must produce at least as many
	// updates as NO-WRATE, usually strictly more.
	topo, err := scenario.Baseline.Generate(600, 23)
	if err != nil {
		t.Fatal(err)
	}
	noW, err := RunCEvents(topo, Config{Origins: 10, BGP: bgp.DefaultConfig(23)})
	if err != nil {
		t.Fatal(err)
	}
	w, err := RunCEvents(topo, Config{Origins: 10, BGP: bgp.WRATEConfig(23)})
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalUpdates < noW.TotalUpdates {
		t.Fatalf("WRATE total %v < NO-WRATE total %v", w.TotalUpdates, noW.TotalUpdates)
	}
}
