package bgp

import (
	"fmt"
	"math"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// Route Flap Dampening (RFC 2439), the churn-suppression mechanism the
// paper's future-work section names. Each (node, neighbor, prefix) keeps a
// penalty that grows on every flap and decays exponentially; routes whose
// penalty crosses the suppress threshold are withheld from the decision
// process until it decays below the reuse threshold.

// Dampening configures RFC 2439 route flap dampening. The zero value
// disables it.
type Dampening struct {
	// Enabled turns dampening on.
	Enabled bool
	// WithdrawPenalty is added when a reachable route is withdrawn
	// (RFC 2439 suggests 1000).
	WithdrawPenalty float64
	// UpdatePenalty is added when an announced route is replaced by a
	// different path (attribute change; commonly 500).
	UpdatePenalty float64
	// SuppressThreshold is the penalty above which the route is suppressed
	// (commonly 2000).
	SuppressThreshold float64
	// ReuseThreshold is the penalty below which a suppressed route is
	// reused (commonly 750).
	ReuseThreshold float64
	// HalfLife is the exponential decay half-life (commonly 15 min).
	HalfLife des.Time
	// MaxSuppress caps the suppression duration; the penalty is clamped to
	// the ceiling ReuseThreshold * 2^(MaxSuppress/HalfLife) (commonly 60
	// min).
	MaxSuppress des.Time
}

// DefaultDampening returns the RFC 2439 example parameters.
func DefaultDampening() Dampening {
	return Dampening{
		Enabled:           true,
		WithdrawPenalty:   1000,
		UpdatePenalty:     500,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          15 * 60 * des.Second,
		MaxSuppress:       60 * 60 * des.Second,
	}
}

// validate checks the dampening parameters (only when enabled).
func (d *Dampening) validate() error {
	if !d.Enabled {
		return nil
	}
	switch {
	case d.WithdrawPenalty <= 0 && d.UpdatePenalty <= 0:
		return fmt.Errorf("bgp: dampening enabled with no penalties")
	case d.WithdrawPenalty < 0 || d.UpdatePenalty < 0:
		return fmt.Errorf("bgp: negative dampening penalty")
	case d.SuppressThreshold <= 0:
		return fmt.Errorf("bgp: non-positive suppress threshold")
	case d.ReuseThreshold <= 0 || d.ReuseThreshold >= d.SuppressThreshold:
		return fmt.Errorf("bgp: reuse threshold must be in (0, suppress)")
	case d.HalfLife <= 0:
		return fmt.Errorf("bgp: non-positive dampening half-life")
	case d.MaxSuppress < d.HalfLife:
		return fmt.Errorf("bgp: MaxSuppress below HalfLife")
	}
	return nil
}

// ceiling returns the maximum penalty value implied by MaxSuppress: a
// penalty at the ceiling decays to ReuseThreshold in exactly MaxSuppress.
func (d *Dampening) ceiling() float64 {
	return d.ReuseThreshold * math.Exp2(float64(d.MaxSuppress)/float64(d.HalfLife))
}

// dampState tracks the flap history of one (neighbor slot, prefix) pair.
type dampState struct {
	penalty    float64
	lastDecay  des.Time
	suppressed bool
	// reuseScheduled guards against duplicate reuse-evaluation events.
	reuseScheduled bool
}

// decayedPenalty returns the penalty decayed to now and stores it.
func (s *dampState) decayedPenalty(now des.Time, halfLife des.Time) float64 {
	if s.penalty > 0 && now > s.lastDecay {
		s.penalty *= math.Exp2(-float64(now-s.lastDecay) / float64(halfLife))
	}
	s.lastDecay = now
	return s.penalty
}

// recordFlap applies a flap penalty at nd's slot for prefix f and returns
// whether the suppression state changed. Caller re-runs the decision
// process if it did.
func (net *Network) recordFlap(nd *node, slot int32, f Prefix, add float64) (changed bool) {
	d := &net.cfg.Dampening
	ps := net.state(nd, f)
	if !ps.dampened {
		if ps.cold == nil {
			ps.cold = new(prefixCold)
		}
		ps.cold.damp, ps.dampened = make([]dampState, nd.deg), true
	}
	s := &ps.cold.damp[slot]
	now := nd.sh.sched.Now()
	p := s.decayedPenalty(now, d.HalfLife) + add
	if ceil := d.ceiling(); p > ceil {
		p = ceil
	}
	s.penalty = p
	if !s.suppressed && p >= d.SuppressThreshold {
		s.suppressed = true
		nd.suppressions++
		net.scheduleReuse(nd, slot, f, s)
		return true
	}
	return false
}

// scheduleReuse arms the event that re-evaluates a suppressed route when
// its penalty should have decayed to the reuse threshold.
func (net *Network) scheduleReuse(nd *node, slot int32, f Prefix, s *dampState) {
	if s.reuseScheduled {
		return
	}
	d := &net.cfg.Dampening
	// Solve penalty * 2^(-t/halfLife) = reuse for t.
	ratio := s.penalty / d.ReuseThreshold
	if ratio <= 1 {
		ratio = 1.0001
	}
	wait := des.Time(float64(d.HalfLife) * math.Log2(ratio))
	if wait < des.Second {
		wait = des.Second
	}
	s.reuseScheduled = true
	nd.sh.sched.After(wait, &reuseEvent{sh: nd.sh, node: nd.id, slot: slot, prefix: f})
}

// reuseEvent re-evaluates one suppressed (neighbor, prefix) route.
type reuseEvent struct {
	sh     *netShard
	node   topology.NodeID
	slot   int32
	prefix Prefix
}

// Fire unsuppresses the route if its penalty has decayed below the reuse
// threshold, otherwise reschedules.
func (e *reuseEvent) Fire(*des.Scheduler) {
	net := e.sh.net
	nd := &net.nodes[e.node]
	ps, ok := nd.prefixes.Get(e.prefix)
	if !ok || !ps.dampened {
		return
	}
	s := &ps.cold.damp[e.slot]
	s.reuseScheduled = false
	if !s.suppressed {
		return
	}
	d := &net.cfg.Dampening
	if s.decayedPenalty(e.sh.sched.Now(), d.HalfLife) < d.ReuseThreshold {
		s.suppressed = false
		net.applyDecision(nd, e.prefix, ps)
		return
	}
	net.scheduleReuse(nd, e.slot, e.prefix, s)
}

// suppressedAt reports whether the route from slot is currently dampened.
func (ps *prefixState) suppressedAt(slot int) bool {
	return ps.dampened && ps.cold.damp[slot].suppressed
}

// Suppressions returns how many times node id suppressed a route since the
// last ResetCounters (0 unless dampening is enabled).
func (net *Network) Suppressions(id topology.NodeID) uint64 {
	return uint64(net.nodes[id].suppressions)
}
