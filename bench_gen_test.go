package bgpchurn

// Topology-generation benchmark: the setup half of the internet-scale
// trajectory. BenchmarkTopologyGenerate runs the generator on the Baseline
// scenario at n ∈ {10k, 50k, 100k}. It is a plain `go test -bench` probe;
// the guarded generation cost is `setup_s` on the benchmark's 50k cells
// (`go run ./benchmark`), whose setup generates 10k and grows to 50k.
//
// Peak RSS is the process high-water mark (VmHWM): run one size per
// process (`-bench 'BenchmarkTopologyGenerate$/n=50000$'`) for clean
// memory numbers.

import (
	"fmt"
	"testing"

	"bgpchurn/internal/obs"
)

func BenchmarkTopologyGenerate(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := Baseline.Params(n, scaleSeed)
			var edges int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				topo, err := GenerateTopology(p)
				if err != nil {
					b.Fatal(err)
				}
				transit, peering := topo.Edges()
				edges = transit + peering
			}
			b.StopTimer()
			b.ReportMetric(float64(edges), "edges")
			b.ReportMetric(float64(obs.PeakRSSBytes())/(1<<20), "peakRSS-MB")
		})
	}
}
