package bgpchurn

import (
	"math"
	"testing"
)

// TestQuickstartFlow exercises the README's quick-start path end to end
// through the public facade.
func TestQuickstartFlow(t *testing.T) {
	topo, err := Baseline.Generate(400, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperiment(42)
	cfg.Origins = 5
	res, err := RunCEvents(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.U(T) <= 0 {
		t.Fatalf("U(T) = %v", res.U(T))
	}
	st := ComputeTopologyStats(topo, 100)
	if st.N != 400 {
		t.Fatalf("stats N = %d", st.N)
	}
}

func TestFacadeScenarios(t *testing.T) {
	if len(Scenarios()) != 14 {
		t.Fatalf("Scenarios() = %d entries, want 14", len(Scenarios()))
	}
	sc, err := ScenarioByName("TREE")
	if err != nil || sc.Name != "TREE" {
		t.Fatalf("ScenarioByName: %v %v", sc.Name, err)
	}
	if _, err := ScenarioByName("BOGUS"); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

func TestFacadeProtocolLevel(t *testing.T) {
	topo, err := Tree.Generate(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, DefaultProtocol(7))
	if err != nil {
		t.Fatal(err)
	}
	origin := topo.NodesOfType(C)[0]
	net.Originate(origin, Prefix(1))
	net.Run()
	if !net.HasRoute(0, Prefix(1)) {
		t.Fatal("tier-1 never learned the prefix")
	}
	if !WRATEProtocol(1).RateLimitWithdrawals {
		t.Fatal("WRATEProtocol misconfigured")
	}
	if PerInterface == PerPrefix {
		t.Fatal("scope constants collide")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	series, err := GenerateMonitorTrace(DefaultMonitorTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	trend, err := MannKendall(series)
	if err != nil {
		t.Fatal(err)
	}
	if !trend.Increasing {
		t.Fatal("monitor trace trend not detected")
	}
	x := []float64{1, 2, 3, 4}
	lin, err := LinearFit(x, []float64{2, 4, 6, 8})
	if err != nil || math.Abs(lin.Coeffs[1]-2) > 1e-9 {
		t.Fatalf("LinearFit: %v %v", lin, err)
	}
	quad, err := QuadraticFit(x, []float64{1, 4, 9, 16})
	if err != nil || math.Abs(quad.Coeffs[2]-1) > 1e-6 {
		t.Fatalf("QuadraticFit: %v %v", quad, err)
	}
	if len(PaperSizes()) != 10 || PaperSizes()[9] != 10000 {
		t.Fatalf("PaperSizes = %v", PaperSizes())
	}
}
