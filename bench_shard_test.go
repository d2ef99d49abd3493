package bgpchurn

// Sharded-executor benchmark: one warm-start churn cell per iteration on
// the windowed executor, across shard counts. `make bench-shard` records
// ns/op, total updates and peak RSS per (n, shards) in BENCH_shard.json;
// the CI shard-smoke job holds the n=10k shards=4 cell under the scale
// tier's peak-RSS budget and demands it be no slower than shards=1.
//
// Every point uses the same positive link delay, so shard counts compare
// the *same* simulated model executed on 1..8 cores: shards=1 is the
// windowed executor run serially, not the classic inline path (which
// simulates a different model, with zero propagation delay). The link
// delay is half the processing-delay bound — wide enough that each
// barrier window retires substantial work per shard, the regime the
// conservative lookahead is designed for.
//
// Topologies come from the scale tier's cached growth chain, so a full
// bench run builds each size once across both benchmarks.

import (
	"fmt"
	"testing"

	"bgpchurn/internal/des"
)

// benchShardCounts is the shard axis of the sharded benchmark.
var benchShardCounts = []int{1, 2, 4, 8}

func BenchmarkShardedCell(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		n := n
		for _, shards := range benchShardCounts {
			shards := shards
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				topo := scaleTopology(b, n)
				cfg := DefaultExperiment(scaleSeed)
				cfg.Origins = 4
				cfg.WarmStart = true
				cfg.Parallelism = 1 // one origin worker: shards supply the parallelism
				cfg.BGP.LinkDelay = 50 * des.Millisecond
				cfg.BGP.Shards = shards
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
}
