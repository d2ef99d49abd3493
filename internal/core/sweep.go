package core

import (
	"fmt"

	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// SweepConfig describes a churn-vs-size sweep for one growth scenario.
type SweepConfig struct {
	// Sizes are the network sizes to measure (the paper uses
	// 1000..10000 step 1000).
	Sizes []int
	// TopologySeed seeds topology generation; each size uses
	// CellSeed(TopologySeed, size) so instances differ but reruns reproduce.
	TopologySeed uint64
	// Event is the per-topology C-event experiment configuration.
	Event Config
}

// CellSeed returns the topology seed of a sweep's cell at size n: the one
// place that derives it from the sweep's topology seed.
func CellSeed(topoSeed uint64, n int) uint64 {
	return topoSeed + uint64(n)
}

// PaperSizes returns the paper's x-axis: 1000..10000 step 1000.
func PaperSizes() []int {
	sizes := make([]int, 0, 10)
	for n := 1000; n <= 10000; n += 1000 {
		sizes = append(sizes, n)
	}
	return sizes
}

// Point is one sweep measurement.
type Point struct {
	N int
	R *Result
}

// SweepResult is the outcome of a scenario sweep: one Result per size.
type SweepResult struct {
	Scenario string
	Points   []Point
}

// Sweep generates a topology per size under the scenario and runs the
// C-event experiment on each, sequentially. On failure it returns the
// points completed so far alongside an error naming the failing
// (scenario, n) cell. See Scheduler.RunSweep for the parallel, cached
// equivalent (byte-identical output).
func Sweep(sc scenario.Scenario, cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("core: empty size list")
	}
	out := &SweepResult{Scenario: sc.Name}
	for _, n := range cfg.Sizes {
		topo, err := sc.Generate(n, CellSeed(cfg.TopologySeed, n))
		if err != nil {
			return out, fmt.Errorf("core: %s at n=%d: %w", sc.Name, n, err)
		}
		res, err := RunCEvents(topo, cfg.Event)
		if err != nil {
			return out, fmt.Errorf("core: %s at n=%d: %w", sc.Name, n, err)
		}
		out.Points = append(out.Points, Point{N: n, R: res})
	}
	return out, nil
}

// Sizes returns the sweep's x-axis.
func (sr *SweepResult) Sizes() []float64 {
	xs := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		xs[i] = float64(p.N)
	}
	return xs
}

// SeriesU returns U(X) across sizes for one node type (Fig. 4).
func (sr *SweepResult) SeriesU(t topology.NodeType) []float64 {
	ys := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		ys[i] = p.R.ByType[t].U
	}
	return ys
}

// SeriesURel returns U_y(X) across sizes: updates received at type t nodes
// from neighbors of relation rel (Fig. 5).
func (sr *SweepResult) SeriesURel(t topology.NodeType, rel topology.Relation) []float64 {
	ys := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		ys[i] = p.R.ByType[t].ByRel[rel].U
	}
	return ys
}

// SeriesM returns the m_y(X) factor across sizes (Fig. 7 top).
func (sr *SweepResult) SeriesM(t topology.NodeType, rel topology.Relation) []float64 {
	ys := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		ys[i] = p.R.ByType[t].ByRel[rel].M
	}
	return ys
}

// SeriesQ returns the q_y(X) factor across sizes (Fig. 7 bottom).
func (sr *SweepResult) SeriesQ(t topology.NodeType, rel topology.Relation) []float64 {
	ys := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		ys[i] = p.R.ByType[t].ByRel[rel].Q
	}
	return ys
}

// SeriesE returns the e_y(X) factor across sizes (Fig. 7 middle, Fig. 12
// bottom).
func (sr *SweepResult) SeriesE(t topology.NodeType, rel topology.Relation) []float64 {
	ys := make([]float64, len(sr.Points))
	for i, p := range sr.Points {
		ys[i] = p.R.ByType[t].ByRel[rel].E
	}
	return ys
}
