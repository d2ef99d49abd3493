package bgpchurn

// End-to-end benchmark of the C-event hot path: one full RunCEvents call at
// n=1000 (paper-scale topology, reduced origin count) per iteration. This is
// the number `make bench-e2e` tracks in BENCH_e2e.json: the cold variant
// pays the full DES initial-propagation flood per origin, the warm variant
// installs the converged RIB directly (core.Config.WarmStart).

import (
	"path/filepath"
	"testing"

	"bgpchurn/internal/core"
)

// benchE2ETopology builds the fixed n=1000 Baseline instance the e2e bench
// measures on (seed matches the experiment seed for provenance).
func benchE2ETopology(b *testing.B) *Topology {
	b.Helper()
	topo, err := Baseline.Generate(1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	return topo
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
	cfg := DefaultExperiment(1)
	cfg.Origins = 20
	cfg.Parallelism = 1 // single worker: measure the kernel, not the pool
	b.Run("cold", func(b *testing.B) {
		benchmarkRunCEvents(b, cfg)
	})
	b.Run("warm", func(b *testing.B) {
		warm := cfg
		warm.WarmStart = true
		benchmarkRunCEvents(b, warm)
	})
	// obs: warm run with a full metrics hub attached. The CI obs-guard job
	// compares its allocs/op against the warm baseline — enabled probes must
	// not allocate on the steady-state path.
	b.Run("obs", func(b *testing.B) {
		instrumented := cfg
		instrumented.WarmStart = true
		instrumented.Obs = NewObsMetrics()
		benchmarkRunCEvents(b, instrumented)
	})
	// spans: warm run with causal tracing on — the engine threads cause IDs
	// and tallies attribution, and each origin closes three spans. The CI
	// obs-guard job budgets its allocs/op against the warm baseline: the
	// per-origin span cost is fixed (~a few records and one Stats map), so a
	// per-update allocation sneaking into the traced hot path blows the
	// budget immediately.
	b.Run("spans", func(b *testing.B) {
		traced := cfg
		traced.WarmStart = true
		traced.Spans = NewSpanRecorder()
		benchmarkRunCEvents(b, traced)
	})
	// journal: warm run followed by the crash-safe checkpoint the scheduler
	// appends after every cell. The resume-guard comparison against the warm
	// baseline enforces that checkpointing stays a fixed per-cell cost (JSON
	// encode + hash + one write) and adds nothing that scales with the event
	// count — the kernel loop itself never touches the journal.
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		warm := cfg
		warm.WarmStart = true
		topo := benchE2ETopology(b)
		j, err := core.OpenJournal(filepath.Join(b.TempDir(), "cells.journal"))
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		key := core.CellKey{Scenario: "BASELINE", N: 1000, TopologySeed: 1, Origins: warm.Origins, WarmStart: true}
		var total float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.RunCEvents(topo, warm)
			if err != nil {
				b.Fatal(err)
			}
			if err := j.Append(key, res); err != nil {
				b.Fatal(err)
			}
			total = res.TotalUpdates
		}
		b.ReportMetric(total, "total-updates")
	})
}
