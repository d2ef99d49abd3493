package bgpchurn

// Topology-generation benchmark: the setup half of the internet-scale
// trajectory. BenchmarkTopologyGenerate runs the generator on the Baseline
// scenario at n ∈ {10k, 50k, 100k}, and grows a 10k Baseline topology to
// 50k and to 100k — the set-up the benchmark's cells run. It is a plain
// `go test -bench` probe; the guarded generation cost is `setup_s` on the
// benchmark's 50k cells (`go run ./benchmark`), whose setup generates 10k
// and grows to 50k.
//
// Peak RSS is the process high-water mark (VmHWM): run one size per
// process (`-bench 'BenchmarkTopologyGenerate$/n=50000$'`) for clean
// memory numbers; a grow run's mark includes its untimed 10k base.

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
			var topo *Topology
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if topo, err = GenerateTopology(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportTopology(b, topo)
		})
	}
	for _, n := range []int{50000, 100000} {
		n := n
		b.Run(fmt.Sprintf("grow=10k→%dk", n/1000), func(b *testing.B) {
			base, err := GenerateTopology(Baseline.Params(10000, scaleSeed))
			if err != nil {
				b.Fatal(err)
			}
			p := Baseline.Params(n, scaleSeed)
			var topo *Topology
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if topo, err = GrowTopology(base, p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportTopology(b, topo)
		})
	}
}

// reportTopology reports the last built topology's edge count and the
// process's peak RSS.
func reportTopology(b *testing.B, topo *Topology) {
	transit, peering := topo.Edges()
	b.ReportMetric(float64(transit+peering), "edges")
	b.ReportMetric(float64(obs.PeakRSSBytes())/(1<<20), "peakRSS-MB")
}
