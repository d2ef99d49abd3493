package bgpchurn

// End-to-end benchmark of the C-event hot path: one full RunCEvents call at
// n=1000 (paper-scale topology, reduced origin count) per iteration. The
// cold variant pays the full DES initial-propagation flood per origin, the
// warm variant installs the converged RIB directly (core.Config.WarmStart).
// TestRunCEventsAllocBudget holds the same warm run's instrumentation and
// checkpointing to fixed per-run allocation budgets.

import (
	"path/filepath"
	"testing"

	"bgpchurn/internal/core"
)

// benchE2ETopology builds the fixed n=1000 Baseline instance the e2e bench
// measures on (seed matches the experiment seed for provenance).
func benchE2ETopology(tb testing.TB) *Topology {
	tb.Helper()
	topo, err := Baseline.Generate(1000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// benchE2EConfig is the experiment both the benchmark and the allocation
// budget run: 20 origins on a single worker, to measure the kernel, not the
// pool.
func benchE2EConfig() Experiment {
	cfg := DefaultExperiment(1)
	cfg.Origins = 20
	cfg.Parallelism = 1
	return cfg
}

// benchmarkRunCEvents runs the C-event experiment with the given
// configuration once per iteration and reports the churn metric so a perf
// regression that changes results is visible in the same record.
func benchmarkRunCEvents(b *testing.B, cfg Experiment) {
	b.ReportAllocs()
	topo := benchE2ETopology(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunCEvents(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalUpdates
	}
	b.ReportMetric(total, "total-updates")
}

// BenchmarkRunCEvents measures RunCEvents wall-clock at n=1000 with 20
// origins, cold (full DES convergence flood per origin) vs warm (direct
// converged-RIB installation).
func BenchmarkRunCEvents(b *testing.B) {
	cfg := benchE2EConfig()
	b.Run("cold", func(b *testing.B) {
		benchmarkRunCEvents(b, cfg)
	})
	b.Run("warm", func(b *testing.B) {
		warm := cfg
		warm.WarmStart = true
		benchmarkRunCEvents(b, warm)
	})
}

// TestRunCEventsAllocBudget holds what rides on a warm run to a fixed
// per-run allocation cost over the bare run. Each slack is a setup budget;
// a run processes ~90k updates, so one allocation per update on any of
// these paths overshoots its slack by an order of magnitude.
//   - obs: a full metrics hub attached. The engine publishes its tallies
//     once per Run/Settle call and allocates nothing to do it.
//   - spans: causal tracing on. Each origin closes three spans and their
//     Stats maps (~140 allocs, ~2.8k at 20 origins); the engine threads
//     cause IDs and tallies attribution without allocating.
//   - journal: the crash-safe checkpoint the scheduler appends after every
//     cell (JSON encode + hash + one write, ~12 allocs); the kernel loop
//     itself never touches the journal.
func TestRunCEventsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race, and the run is 30x slower")
	}
	topo := benchE2ETopology(t)
	warm := benchE2EConfig()
	warm.WarmStart = true
	run := func(cfg Experiment) *Result {
		res, err := core.RunCEvents(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	j, err := core.OpenJournal(filepath.Join(t.TempDir(), "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	key := core.CellKey{Scenario: "BASELINE", N: 1000, TopologySeed: 1, Origins: warm.Origins, WarmStart: true}

	instrumented, traced := warm, warm
	instrumented.Obs = NewObsMetrics()
	traced.Spans = NewSpanRecorder()
	base := testing.AllocsPerRun(3, func() { run(warm) })
	for _, tc := range []struct {
		name  string
		slack float64
		run   func()
	}{
		{"obs", 16, func() { run(instrumented) }},
		{"spans", 4096, func() { run(traced) }},
		{"journal", 48, func() {
			if err := j.Append(key, run(warm)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(3, tc.run)
		t.Logf("%s: %.0f allocs/run (warm %.0f, +%.0f, slack %.0f)", tc.name, got, base, got-base, tc.slack)
		if got > base+tc.slack {
			t.Errorf("%s: %.0f allocs/run, over warm %.0f + slack %.0f", tc.name, got, base, tc.slack)
		}
	}
}
