package bgpchurn

// Internet-scale benchmark: one warm-start churn cell per iteration on
// Baseline topologies at n ∈ {10k, 50k, 100k}, with streaming aggregation —
// the configuration that makes n=100k fit on a single machine. `make bench-scale` records ns/op plus peak RSS per size
// in BENCH_scale.json; the CI scale-smoke job holds the n=10k cell under an
// absolute peak-RSS budget via cmd/benchguard.
//
// The topologies form a growth chain (10k grown to 50k grown to 100k),
// exercising the incremental generator at scale, and are built lazily so a
// filtered run (scale-smoke selects only n=10000) never pays for the sizes
// it skips. The chain runs on the Fenwick-indexed generator (seconds per
// size — see BENCH_gen.json), so the warm cell, not setup, dominates
// wall-clock. Peak RSS is the process high-water mark (VmHWM); with sizes
// ascending each reading is dominated by the largest cell completed so far.
// Run this benchmark alone (as the Makefile target does) for clean numbers.

import (
	"fmt"
	"testing"
)

// scaleSeed fixes the Baseline instance the scale trajectory tracks.
// Baseline draws its tier-1 clique size from the seed alone, so parameter
// sets at different n remain growth-compatible.
const scaleSeed = 1

func scaleSizes() []int { return []int{10000, 50000, 100000} }

// scaleTopos caches the growth chain across sub-benchmarks of one process.
var scaleTopos = map[int]*Topology{}

// scaleTopology returns the Baseline topology at size n, generating the
// smallest size directly and growing through each intermediate size once.
func scaleTopology(b *testing.B, n int) *Topology {
	b.Helper()
	var prev *Topology
	for _, s := range scaleSizes() {
		if s > n {
			break
		}
		if scaleTopos[s] == nil {
			var (
				t   *Topology
				err error
			)
			if prev == nil {
				t, err = GenerateTopology(Baseline.Params(s, scaleSeed))
			} else {
				t, err = GrowTopology(prev, Baseline.Params(s, scaleSeed))
			}
			if err != nil {
				b.Fatal(err)
			}
			scaleTopos[s] = t
		}
		prev = scaleTopos[s]
	}
	if scaleTopos[n] == nil {
		b.Fatalf("size %d is not in the scale chain %v", n, scaleSizes())
	}
	return scaleTopos[n]
}

func BenchmarkScaleCell(b *testing.B) {
	for _, n := range scaleSizes() {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo := scaleTopology(b, n)
			cfg := DefaultExperiment(scaleSeed)
			cfg.Origins = 4
			cfg.WarmStart = true
			cfg.Parallelism = 1 // one origin worker: O(N) aggregation state
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunCEvents(topo, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total = res.TotalUpdates
			}
			b.StopTimer()
			b.ReportMetric(total, "total-updates")
			b.ReportMetric(float64(PeakRSSBytes())/(1<<20), "peakRSS-MB")
		})
	}
}
