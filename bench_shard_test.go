package bgpchurn

// Sharded-executor benchmark: one warm-start churn cell per iteration on
// the windowed executor, reporting ns/op, total updates and peak RSS per n.
// Its axis is the CPU count (run it with `-count 3 -cpu 1,2,4,8`): a
// windowed network is cut into partitions by GOMAXPROCS, and with one origin
// worker its crew takes the other cores of the budget. The guarded windowed
// numbers are the cell_windowed_50k workload of `go run ./benchmark`.
//
// Every point uses the same positive link delay, so CPU counts compare
// the *same* simulated model: one CPU is the windowed executor run
// serially, not the classic inline path (which simulates a different
// model, with zero propagation delay). The link delay is half the
// processing-delay bound — wide enough that each barrier window retires
// substantial work per partition, the regime the conservative lookahead is
// designed for.
//
// Topologies come from the scale tier's cached growth chain, so a full
// bench run builds each size once across both benchmarks.

import (
	"fmt"
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
)

func BenchmarkShardedCell(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo := scaleTopology(b, n)
			cfg := DefaultExperiment(scaleSeed)
			cfg.Origins = 4
			cfg.WarmStart = true
			cfg.Parallelism = 1 // one origin worker: the crew takes the other cores
			cfg.BGP.LinkDelay = 50 * des.Millisecond
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
			b.ReportMetric(float64(obs.PeakRSSBytes())/(1<<20), "peakRSS-MB")
		})
	}
}
