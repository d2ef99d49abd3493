package bgpchurn

// One benchmark per table/figure of the paper, plus ablation benches for
// the design choices called out in DESIGN.md. Benchmarks run reduced
// parameter sweeps (smaller sizes and fewer event originators than the
// paper's 1000–10000 × 100) so the whole suite stays in CI territory; the
// cmd/experiments binary runs the full-scale versions. Key measured values
// are attached to each benchmark via ReportMetric, so `go test -bench .`
// prints the quantities the corresponding figure plots.

import (
	"context"
	"testing"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/core"
	"bgpchurn/internal/des"
	"bgpchurn/internal/stats"
)

// benchSizes is the reduced sweep x-axis used by the figure benches.
func benchSizes() []int { return []int{800, 1600, 2400} }

// benchExperiment is the reduced C-event experiment (12 origins instead of
// the paper's 100).
func benchExperiment(seed uint64) Experiment {
	cfg := DefaultExperiment(seed)
	cfg.Origins = 12
	return cfg
}

// mustSweep runs one sweep through the experiment scheduler (cells in
// parallel; results byte-identical to the sequential path).
func mustSweep(b *testing.B, sc Scenario, cfg SweepConfig) *SweepResult {
	b.Helper()
	sw, err := RunSweep(context.Background(), sc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sw
}

// mustGrid runs a whole scenario×size grid through the scheduler, one
// SweepResult per request, sharing identical cells across requests.
func mustGrid(b *testing.B, reqs []GridRequest) []*SweepResult {
	b.Helper()
	out, err := RunGrid(context.Background(), reqs)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// gridRequests builds one GridRequest per scenario over the reduced bench
// sweep at the given seed.
func gridRequests(seed uint64, scenarios ...Scenario) []GridRequest {
	reqs := make([]GridRequest, len(scenarios))
	for i, sc := range scenarios {
		reqs[i] = GridRequest{Scenario: sc, Sizes: benchSizes(), TopologySeed: seed, Event: benchExperiment(seed)}
	}
	return reqs
}

// BenchmarkFig1TrendEstimation regenerates Fig. 1's workflow: a three-year
// daily monitor series with embedded ~200% growth, trend-estimated with
// Mann-Kendall/Sen as in the paper.
func BenchmarkFig1TrendEstimation(b *testing.B) {
	b.ReportAllocs()
	var slopeRatio, growth float64
	for i := 0; i < b.N; i++ {
		p := DefaultMonitorTrace(uint64(i) + 1)
		series, err := GenerateMonitorTrace(p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := MannKendall(series)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Increasing {
			b.Fatal("embedded churn growth not detected")
		}
		slopeRatio = res.Slope / p.TrendSlope()
		growth = res.Slope * float64(p.Days) / p.BaseDaily
	}
	b.ReportMetric(slopeRatio, "sen/true-slope")
	b.ReportMetric(growth*100, "growth-%-over-3y")
}

// BenchmarkTable1TopologyGeneration builds a Baseline topology per
// iteration and reports its Table 1 realized parameters.
func BenchmarkTable1TopologyGeneration(b *testing.B) {
	b.ReportAllocs()
	var mhdM, mhdC, peering float64
	for i := 0; i < b.N; i++ {
		topo, err := Baseline.Generate(5000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		st := ComputeTopologyStats(topo, 0)
		mhdM, mhdC = st.MeanMHD[M], st.MeanMHD[C]
		peering = float64(st.Peering)
	}
	b.ReportMetric(mhdM, "MHD(M)")
	b.ReportMetric(mhdC, "MHD(C)")
	b.ReportMetric(peering, "peer-links")
}

// BenchmarkTopologyProperties measures the §3 structural claims: strong
// clustering and a ~4-hop constant average path length.
func BenchmarkTopologyProperties(b *testing.B) {
	b.ReportAllocs()
	var clustering, apl float64
	for i := 0; i < b.N; i++ {
		topo, err := Baseline.Generate(3000, uint64(i)+7)
		if err != nil {
			b.Fatal(err)
		}
		st := ComputeTopologyStats(topo, 300)
		clustering, apl = st.Clustering, st.AvgPathLength
	}
	b.ReportMetric(clustering, "clustering")
	b.ReportMetric(apl, "avg-path-len")
}

// BenchmarkFig4UpdatesByType sweeps the Baseline model and reports U(X)
// per node type at the largest size (Fig. 4's right edge).
func BenchmarkFig4UpdatesByType(b *testing.B) {
	b.ReportAllocs()
	var uT, uM, uCP, uC float64
	for i := 0; i < b.N; i++ {
		sw := mustSweep(b, Baseline, SweepConfig{
			Sizes: benchSizes(), TopologySeed: uint64(i) + 1, Event: benchExperiment(uint64(i) + 1),
		})
		last := len(sw.Points) - 1
		uT = sw.SeriesU(T)[last]
		uM = sw.SeriesU(M)[last]
		uCP = sw.SeriesU(CP)[last]
		uC = sw.SeriesU(C)[last]
		if !(uT > uC && uM > uC) {
			b.Fatalf("type ordering violated: T=%v M=%v CP=%v C=%v", uT, uM, uCP, uC)
		}
	}
	b.ReportMetric(uT, "U(T)")
	b.ReportMetric(uM, "U(M)")
	b.ReportMetric(uCP, "U(CP)")
	b.ReportMetric(uC, "U(C)")
}

// BenchmarkFig5RelationSplit reports the per-relation split of Fig. 5:
// Uc(T), Up(T) and Ud(M) at the largest size.
func BenchmarkFig5RelationSplit(b *testing.B) {
	b.ReportAllocs()
	var ucT, upT, udM, shareD float64
	for i := 0; i < b.N; i++ {
		sw := mustSweep(b, Baseline, SweepConfig{
			Sizes: benchSizes(), TopologySeed: uint64(i) + 2, Event: benchExperiment(uint64(i) + 2),
		})
		last := len(sw.Points) - 1
		ucT = sw.SeriesURel(T, Customer)[last]
		upT = sw.SeriesURel(T, Peer)[last]
		udM = sw.SeriesURel(M, Provider)[last]
		uM := sw.SeriesU(M)[last]
		shareD = udM / uM
		// Fig. 5 bottom: M nodes receive the large majority of their
		// updates from providers.
		if shareD < 0.5 {
			b.Fatalf("Ud(M)/U(M) = %v, provider share should dominate", shareD)
		}
	}
	b.ReportMetric(ucT, "Uc(T)")
	b.ReportMetric(upT, "Up(T)")
	b.ReportMetric(udM, "Ud(M)")
	b.ReportMetric(shareD, "Ud/U(M)")
}

// BenchmarkFig6RelativeIncrease reports the growth factors of Uc(T), Up(T)
// and Ud(M) across the sweep (Fig. 6 normalizes to n=1000).
func BenchmarkFig6RelativeIncrease(b *testing.B) {
	b.ReportAllocs()
	var gUc, gUp, gUd float64
	for i := 0; i < b.N; i++ {
		sw := mustSweep(b, Baseline, SweepConfig{
			Sizes: benchSizes(), TopologySeed: uint64(i) + 3, Event: benchExperiment(uint64(i) + 3),
		})
		gUc = stats.GrowthFactor(sw.SeriesURel(T, Customer))
		gUp = stats.GrowthFactor(sw.SeriesURel(T, Peer))
		gUd = stats.GrowthFactor(sw.SeriesURel(M, Provider))
	}
	b.ReportMetric(gUc, "x-Uc(T)")
	b.ReportMetric(gUp, "x-Up(T)")
	b.ReportMetric(gUd, "x-Ud(M)")
}

// BenchmarkFig7FactorDecomposition reports the growth of the Eq.-1 factors
// (m, e, q panels of Fig. 7).
func BenchmarkFig7FactorDecomposition(b *testing.B) {
	b.ReportAllocs()
	var gM, gE, qd float64
	for i := 0; i < b.N; i++ {
		sw := mustSweep(b, Baseline, SweepConfig{
			Sizes: benchSizes(), TopologySeed: uint64(i) + 4, Event: benchExperiment(uint64(i) + 4),
		})
		gM = stats.GrowthFactor(sw.SeriesM(T, Customer))
		gE = stats.GrowthFactor(sw.SeriesE(M, Provider))
		qd = sw.SeriesQ(M, Provider)[len(sw.Points)-1]
		if qd < 0.95 {
			b.Fatalf("q_d(M) = %v, paper says > 0.99", qd)
		}
	}
	b.ReportMetric(gM, "x-mc(T)")
	b.ReportMetric(gE, "x-ed(M)")
	b.ReportMetric(qd, "qd(M)")
}

// fig8Scenarios are the §5.1 population-mix deviations.
func fig8Scenarios() []Scenario {
	return []Scenario{RichMiddle, Baseline, StaticMiddle, TransitClique, NoMiddle}
}

// BenchmarkFig8PopulationMix compares U(T) growth across the node-mix
// deviations: RICH-MIDDLE > BASELINE > STATIC-MIDDLE, and
// NO-MIDDLE ≈ TRANSIT-CLIQUE at the bottom.
func BenchmarkFig8PopulationMix(b *testing.B) {
	b.ReportAllocs()
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, sw := range mustGrid(b, gridRequests(uint64(i)+5, fig8Scenarios()...)) {
			vals[sw.Scenario] = sw.SeriesU(T)[len(sw.Points)-1]
		}
	}
	for name, v := range vals {
		b.ReportMetric(v, "U(T)@"+name)
	}
	if vals["RICH-MIDDLE"] <= vals["STATIC-MIDDLE"] {
		b.Fatalf("RICH-MIDDLE %v should out-churn STATIC-MIDDLE %v", vals["RICH-MIDDLE"], vals["STATIC-MIDDLE"])
	}
	if vals["NO-MIDDLE"] >= vals["BASELINE"] {
		b.Fatalf("NO-MIDDLE %v should churn less than BASELINE %v", vals["NO-MIDDLE"], vals["BASELINE"])
	}
}

// BenchmarkFig9Multihoming compares the §5.2 MHD deviations at T nodes and
// checks the TREE invariant (exactly 2 updates per C-event).
func BenchmarkFig9Multihoming(b *testing.B) {
	b.ReportAllocs()
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, sw := range mustGrid(b, gridRequests(uint64(i)+6, DenseCore, DenseEdge, Baseline, Tree, ConstantMHD)) {
			vals[sw.Scenario] = sw.SeriesU(T)[len(sw.Points)-1]
		}
	}
	for name, v := range vals {
		b.ReportMetric(v, "U(T)@"+name)
	}
	if vals["TREE"] != 2 {
		b.Fatalf("TREE U(T) = %v, want exactly 2", vals["TREE"])
	}
	if vals["DENSE-CORE"] <= vals["CONSTANT-MHD"] {
		b.Fatalf("DENSE-CORE %v should out-churn CONSTANT-MHD %v", vals["DENSE-CORE"], vals["CONSTANT-MHD"])
	}
}

// BenchmarkFig10Peering compares the §5.3 peering deviations at M nodes;
// the paper's conclusion is that peering density barely matters.
func BenchmarkFig10Peering(b *testing.B) {
	b.ReportAllocs()
	vals := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, sw := range mustGrid(b, gridRequests(uint64(i)+7, NoPeering, Baseline, StrongCorePeering, StrongEdgePeering)) {
			vals[sw.Scenario] = sw.SeriesU(M)[len(sw.Points)-1]
		}
	}
	for name, v := range vals {
		b.ReportMetric(v, "U(M)@"+name)
	}
	base := vals["BASELINE"]
	for name, v := range vals {
		if v < base/3 || v > base*3 {
			b.Fatalf("peering deviation %s moved U(M) from %v to %v — paper says peering barely matters", name, base, v)
		}
	}
}

// BenchmarkFig11ProviderPreference compares PREFER-MIDDLE vs PREFER-TOP
// (§5.4): deeper hierarchies churn more at the top.
func BenchmarkFig11ProviderPreference(b *testing.B) {
	b.ReportAllocs()
	var mid, top, mcTop, mcMid float64
	for i := 0; i < b.N; i++ {
		out := mustGrid(b, gridRequests(uint64(i)+8, PreferMiddle, PreferTop))
		swMid, swTop := out[0], out[1]
		last := len(swMid.Points) - 1
		mid, top = swMid.SeriesU(T)[last], swTop.SeriesU(T)[last]
		mcMid, mcTop = swMid.SeriesM(T, Customer)[last], swTop.SeriesM(T, Customer)[last]
		// Fig. 11 middle panel: PREFER-TOP gives T nodes far more direct
		// customers.
		if mcTop <= mcMid {
			b.Fatalf("mc(T): PREFER-TOP %v <= PREFER-MIDDLE %v", mcTop, mcMid)
		}
	}
	b.ReportMetric(mid, "U(T)@PREFER-MIDDLE")
	b.ReportMetric(top, "U(T)@PREFER-TOP")
	b.ReportMetric(mcMid, "mc(T)@PREFER-MIDDLE")
	b.ReportMetric(mcTop, "mc(T)@PREFER-TOP")
}

// BenchmarkFig12WRATE measures the §6 result: rate-limiting explicit
// withdrawals (WRATE) multiplies churn via path exploration.
func BenchmarkFig12WRATE(b *testing.B) {
	b.ReportAllocs()
	var ratioT, ratioC float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 9
		cfgNo := benchExperiment(seed)
		cfgW := cfgNo
		cfgW.BGP = bgp.WRATEConfig(seed)
		cfgW.Origins = cfgNo.Origins
		out := mustGrid(b, []GridRequest{
			{Scenario: Baseline, Sizes: benchSizes(), TopologySeed: seed, Event: cfgNo},
			{Scenario: Baseline, Sizes: benchSizes(), TopologySeed: seed, Event: cfgW},
		})
		swNo, swW := out[0], out[1]
		last := len(swNo.Points) - 1
		ratioT = swW.SeriesU(T)[last] / swNo.SeriesU(T)[last]
		ratioC = swW.SeriesU(C)[last] / swNo.SeriesU(C)[last]
		if ratioT < 1 {
			b.Fatalf("WRATE/NO-WRATE ratio at T = %v, expected > 1", ratioT)
		}
	}
	b.ReportMetric(ratioT, "WRATE/NO-WRATE@T")
	b.ReportMetric(ratioC, "WRATE/NO-WRATE@C")
}

// BenchmarkAblationMRAIScope compares the vendor per-interface MRAI (the
// paper's model) against the standard's per-prefix timers.
func BenchmarkAblationMRAIScope(b *testing.B) {
	b.ReportAllocs()
	var perIface, perPrefix float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 10
		topo, err := Baseline.Generate(1200, seed)
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchExperiment(seed)
		res1, err := core.RunCEvents(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.BGP.Scope = PerPrefix
		res2, err := core.RunCEvents(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		perIface, perPrefix = res1.TotalUpdates, res2.TotalUpdates
	}
	b.ReportMetric(perIface, "updates@per-interface")
	b.ReportMetric(perPrefix, "updates@per-prefix")
}

// BenchmarkAblationMRAIValue sweeps the MRAI duration (0 disables rate
// limiting) under WRATE, where the timer interacts with path exploration.
func BenchmarkAblationMRAIValue(b *testing.B) {
	b.ReportAllocs()
	values := []des.Time{0, 5 * des.Second, 30 * des.Second, 60 * des.Second}
	results := make([]float64, len(values))
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 11
		topo, err := Baseline.Generate(1200, seed)
		if err != nil {
			b.Fatal(err)
		}
		for vi, v := range values {
			cfg := benchExperiment(seed)
			cfg.BGP = bgp.WRATEConfig(seed)
			cfg.BGP.MRAI = v
			cfg.Origins = 12
			if v == 0 {
				cfg.Settle = des.Second
			}
			res, err := core.RunCEvents(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[vi] = res.TotalUpdates
		}
	}
	b.ReportMetric(results[0], "updates@mrai-0s")
	b.ReportMetric(results[1], "updates@mrai-5s")
	b.ReportMetric(results[2], "updates@mrai-30s")
	b.ReportMetric(results[3], "updates@mrai-60s")
}

// BenchmarkExtensionSessionResets measures R-event churn scaling with the
// number of prefixes a core session carries (the session-reset churn
// source the paper's introduction names).
func BenchmarkExtensionSessionResets(b *testing.B) {
	b.ReportAllocs()
	var perPrefix2, perPrefix20 float64
	for i := 0; i < b.N; i++ {
		topo, err := Baseline.Generate(800, uint64(i)+15)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSessionResets(uint64(i) + 15)
		cfg.Sessions = 5
		cfg.Prefixes = 2
		small, err := RunSessionResets(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Prefixes = 20
		large, err := RunSessionResets(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		perPrefix2 = small.MeanUpdatesPerPrefix
		perPrefix20 = large.MeanUpdatesPerPrefix
	}
	b.ReportMetric(perPrefix2, "updates/prefix@2")
	b.ReportMetric(perPrefix20, "updates/prefix@20")
}

// BenchmarkExtensionConvergenceVsMRAI sweeps the MRAI value and reports
// the UP-phase (announcement) convergence time, the Griffin-Premore
// experiment the paper cites: rate limiting trades convergence latency for
// update volume.
func BenchmarkExtensionConvergenceVsMRAI(b *testing.B) {
	b.ReportAllocs()
	values := []des.Time{0, 5 * des.Second, 15 * des.Second, 30 * des.Second, 60 * des.Second}
	up := make([]float64, len(values))
	updates := make([]float64, len(values))
	for i := 0; i < b.N; i++ {
		topo, err := Baseline.Generate(1000, uint64(i)+16)
		if err != nil {
			b.Fatal(err)
		}
		for vi, v := range values {
			cfg := benchExperiment(uint64(i) + 16)
			cfg.BGP.MRAI = v
			if v == 0 {
				cfg.Settle = des.Second
			}
			res, err := core.RunCEvents(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			up[vi] = res.UpSeconds
			updates[vi] = res.TotalUpdates
		}
	}
	for vi, v := range values {
		b.ReportMetric(up[vi], "up-s@mrai-"+v.String())
		b.ReportMetric(updates[vi], "updates@mrai-"+v.String())
	}
}

// BenchmarkBaselineCompactRouting compares the compact-routing comparator
// (related work [17]) against BGP on table size, stretch, and the cost of
// one landmark failure — the static-vs-dynamic trade-off the paper's
// related-work section describes.
func BenchmarkBaselineCompactRouting(b *testing.B) {
	b.ReportAllocs()
	var tableRatio, meanStretch, failureImpact float64
	for i := 0; i < b.N; i++ {
		topo, err := Baseline.Generate(1500, uint64(i)+13)
		if err != nil {
			b.Fatal(err)
		}
		scheme, err := BuildCompactRouting(topo, 40, uint64(i)+13)
		if err != nil {
			b.Fatal(err)
		}
		// BGP stores one route per destination AS: n entries.
		tableRatio = scheme.MeanTableSize() / float64(topo.N())
		st := scheme.MeasureStretch([]int32{1, 200, 700, 1400})
		meanStretch = st.Mean
		if st.Max > 3+1e-9 {
			b.Fatalf("stretch bound violated: %v", st.Max)
		}
		entries, _ := scheme.LandmarkFailureImpact(scheme.Landmarks[0])
		failureImpact = float64(entries)
	}
	b.ReportMetric(tableRatio, "table-size-vs-bgp")
	b.ReportMetric(meanStretch, "mean-stretch")
	b.ReportMetric(failureImpact, "entries-hit-by-landmark-failure")
}

// BenchmarkAblationProcessingDelay varies the per-update processing delay
// bound around the paper's 100 ms choice.
func BenchmarkAblationProcessingDelay(b *testing.B) {
	b.ReportAllocs()
	delays := []des.Time{10 * des.Millisecond, 100 * des.Millisecond, 1000 * des.Millisecond}
	results := make([]float64, len(delays))
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 12
		topo, err := Baseline.Generate(1200, seed)
		if err != nil {
			b.Fatal(err)
		}
		for di, d := range delays {
			cfg := benchExperiment(seed)
			cfg.BGP.MaxProcessingDelay = d
			res, err := core.RunCEvents(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[di] = res.TotalUpdates
		}
	}
	b.ReportMetric(results[0], "updates@10ms")
	b.ReportMetric(results[1], "updates@100ms")
	b.ReportMetric(results[2], "updates@1000ms")
}
