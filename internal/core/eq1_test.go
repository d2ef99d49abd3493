package core

import (
	"fmt"
	"math"
	"testing"

	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// checkEq1 asserts that r's factors close Eq. 1: per type and relation
// M·Q·E = U, and per type Σ_rel M·Q·E = U(X), within a relative 1e-12.
func checkEq1(t *testing.T, name string, r *Result) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	for _, typ := range topology.NodeTypes {
		tr := &r.ByType[typ]
		var sum float64
		for rel, rf := range tr.ByRel {
			mqe := rf.M * rf.Q * rf.E
			if !near(mqe, rf.U) {
				t.Errorf("%s: %v/%v: M·Q·E = %v·%v·%v = %v, U = %v", name, typ, topology.Relation(rel), rf.M, rf.Q, rf.E, mqe, rf.U)
			}
			sum += mqe
		}
		if !near(sum, tr.U) {
			t.Errorf("%s: %v: Σ M·Q·E = %v, U = %v", name, typ, sum, tr.U)
		}
	}
}

// TestEq1Closes: every Result's Eq.-1 factors multiply to its U. Random
// scenarios, sizes, seeds, WRATE or NO-WRATE, and C-events or link events.
func TestEq1Closes(t *testing.T) {
	scenarios := scenario.All()
	for c := 0; c < 60; c++ {
		src := rng.New(0xe91c105e ^ uint64(c)<<20)
		sc := scenarios[src.Intn(len(scenarios))]
		n := 100 + src.Intn(301)
		seed := src.Uint64()
		cfg := testConfig(seed, 1+src.Intn(4))
		cfg.BGP.RateLimitWithdrawals = src.Bernoulli(0.5)
		if src.Bernoulli(0.5) {
			cfg.Kind = LinkEvent
		}
		name := fmt.Sprintf("case %d: %s n=%d seed=%#x wrate=%v %v", c, sc.Name, n, seed, cfg.BGP.RateLimitWithdrawals, cfg.Kind)
		topo, err := sc.Generate(n, seed)
		if err != nil {
			// Some scenarios fix absolute node counts that small n cannot hold.
			if topo, err = scenario.Baseline.Generate(n, seed); err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunCEvents(topo, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEq1(t, name, res)
	}
}
