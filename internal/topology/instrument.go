package topology

import (
	"sync/atomic"
	"time"

	"bgpchurn/internal/obs"
)

// genProbes is the package-wide handle to the hub's generation metrics.
// Topology generation has no long-lived per-consumer object to hang a hub
// on (it is a free function called from many goroutines), so the handle
// lives in an atomic pointer: nil — the default — costs one atomic load per
// Generate call, nothing per node or edge.
var genProbes atomic.Pointer[obs.TopoProbes]

// SetObsProbes attaches (or, with nil, detaches) generation metrics.
// Typically called once per process by the binary that owns the metrics
// hub: SetObsProbes(m.NewTopoProbes()).
func SetObsProbes(p *obs.TopoProbes) { genProbes.Store(p) }

// phaseTimer splits one generation's wall time across the generator phases
// and records the run on the probes. Without probes every lap is a single
// branch; with them, each lap reads the clock once and charges the elapsed
// interval to the finished phase.
type phaseTimer struct {
	probes      *obs.TopoProbes
	start, last time.Time
	laps        [obs.GenPhaseCount]time.Duration
}

// startPhases resolves the probes up front, so the uninstrumented path pays
// one atomic load per call and never touches the wall clock.
func startPhases() phaseTimer {
	pt := phaseTimer{probes: genProbes.Load()}
	if pt.probes != nil {
		pt.start = time.Now()
		pt.last = pt.start
	}
	return pt
}

func (t *phaseTimer) lap(p obs.GenPhase) {
	if t.probes == nil {
		return
	}
	now := time.Now()
	t.laps[p] = now.Sub(t.last)
	t.last = now
}

// record observes one successful generation (or growth step, with
// nodes/edges holding the delta). Phases with a zero lap — not executed,
// e.g. the clique phase on the Grow path — are not observed.
func (t *phaseTimer) record(nodes, edges int) {
	p := t.probes
	if p == nil {
		return
	}
	p.Generated.Inc()
	p.Nodes.Add(uint64(nodes))
	p.Edges.Add(uint64(edges))
	p.GenSeconds.Observe(time.Since(t.start).Seconds())
	for ph, d := range t.laps {
		if d > 0 {
			p.PhaseSeconds[ph].Observe(d.Seconds())
		}
	}
}
