package obs

// GenPhase identifies one phase of topology generation, in execution
// order. The Grow path skips PhaseClique (the clique is inherited).
type GenPhase int

const (
	PhaseClique GenPhase = iota
	PhaseMNodes
	PhaseStubs
	PhaseCones
	PhaseMPeering
	PhaseCPPeering
	GenPhaseCount
)

var genPhaseNames = [GenPhaseCount]string{
	"clique", "mnodes", "stubs", "cones", "mpeering", "cppeering",
}

func (p GenPhase) String() string { return genPhaseNames[p] }

// TopoProbes is the hub's topology-generation metrics: the handle
// topology.SetObsProbes takes, since generation is a free function with no
// long-lived object to attach a hub to.
type TopoProbes struct {
	Generated    *Counter                  // topologies generated
	Nodes        *Counter                  // nodes created across all generations
	Edges        *Counter                  // links created across all generations
	GenSeconds   *Histogram                // wall time per generation
	PhaseSeconds [GenPhaseCount]*Histogram // wall time per generation phase
}

// NewTopoProbes returns the hub's topology-generation metrics.
func (m *Metrics) NewTopoProbes() *TopoProbes { return &m.Topo }
