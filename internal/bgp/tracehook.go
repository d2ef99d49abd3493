package bgp

import (
	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// Update tracing: an optional hook that observes every update the moment a
// node finishes processing it, in the spirit of an MRT update dump. Used by
// analyses that need the full update stream rather than counters (e.g.
// inter-arrival statistics, per-prefix timelines).

// UpdateRecord describes one processed update.
type UpdateRecord struct {
	// Time is the virtual instant processing completed.
	Time des.Time
	// From and To are the sending and receiving ASes.
	From, To topology.NodeID
	// Kind is Announce or Withdraw.
	Kind UpdateKind
	// Prefix is the affected destination.
	Prefix Prefix
	// Path is the announced AS path (nil for withdrawals). The slice is the
	// intern table's canonical storage, shared with the engine and every
	// other record of the same path: it must not be modified. A hook that
	// buffers records can keep the fixed-size identity below (PathID + len)
	// instead — the bounded -trace ring does (see obs.TraceRecord).
	Path Path
	// PathID is the hash-consed identity of Path (NoPath on withdrawals).
	// Like Path it stays valid across Reset: the intern table is never
	// cleared.
	PathID PathID
	// Cause is the root-cause ID of the routing event whose propagation
	// produced this update (0 when causal tracing is off; see CauseID).
	Cause CauseID
}

// SetUpdateHook installs fn to be called for every update processed from
// now on (nil uninstalls). The hook runs synchronously inside the event
// loop: keep it cheap, and do not call back into the Network from it.
//
// It has two users: the input of the bounded -trace ring (obs.UpdateTrace,
// via core.Config.Trace) and the all-evented reference of
// TestAdmissionCompletionMatchesEvented. An installed hook turns
// admission-time completion off — every update goes through the event
// queue — and runs the windowed executor on one worker; results stay
// byte-identical, runs get slower.
func (net *Network) SetUpdateHook(fn func(UpdateRecord)) {
	net.updateHook = fn
}
