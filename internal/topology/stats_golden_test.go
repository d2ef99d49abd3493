package topology_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bgpchurn/internal/compact"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

var updateStatsGolden = flag.Bool("update-stats-golden", false, "rewrite testdata/stats.golden.json from the current code")

// statsRecord is one topology's structural statistics and degree CCDF.
type statsRecord struct {
	Scenario string
	N        int
	Seed     uint64
	Stats    topology.Stats
	// SampledPath is AvgPathLength from 200 stratified BFS sources.
	SampledPath float64
	Degrees     []int
	CCDF        []float64
}

// compactRecord is compact routing's table size and stretch on one topology.
type compactRecord struct {
	Scenario      string
	N             int
	Seed          uint64
	Landmarks     int
	MeanTableSize float64
	MaxTableSize  int
	Stretch       compact.StretchStats
}

type statsGolden struct {
	Stats   []statsRecord
	Compact []compactRecord
}

// TestStatsGolden freezes every walk over the AS graph that reaches an
// output byte: ComputeStats (clustering, assortativity, path length) and
// DegreeCCDF on three scenarios, and compact routing's BFS-built tables and
// stretch. JSON float encoding round-trips exactly, so an equal file means
// equal bits.
func TestStatsGolden(t *testing.T) {
	var g statsGolden
	for _, name := range []string{"BASELINE", "DENSE-CORE", "NO-PEERING"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			topo, err := sc.Generate(2000, seed)
			if err != nil {
				t.Fatal(err)
			}
			degs, ccdf := topology.DegreeCCDF(topo)
			g.Stats = append(g.Stats, statsRecord{
				Scenario: name, N: 2000, Seed: seed,
				Stats:       topology.ComputeStats(topo, 0),
				SampledPath: topology.ComputeStats(topo, 200).AvgPathLength,
				Degrees:     degs, CCDF: ccdf,
			})
		}
	}
	const n, seed = 1000, 1
	topo, err := scenario.Baseline.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	graph := topo.CSR()
	k := int(math.Ceil(math.Sqrt(n)))
	s, err := compact.Build(graph, compact.ChooseLandmarks(graph, k, seed))
	if err != nil {
		t.Fatal(err)
	}
	var sources []int32
	for v := int32(0); v < n; v += 37 {
		sources = append(sources, v)
	}
	g.Compact = append(g.Compact, compactRecord{
		Scenario: "BASELINE", N: n, Seed: seed, Landmarks: k,
		MeanTableSize: s.MeanTableSize(), MaxTableSize: s.MaxTableSize(),
		Stretch: s.MeasureStretch(sources),
	})

	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "stats.golden.json")
	if *updateStatsGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-stats-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("statistics differ from %s:\n%s", path, got)
	}
}
