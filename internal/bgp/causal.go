package bgp

// Causal churn tracing. Every in-flight update carries a compact root-cause
// ID — the routing event (C-event phase or link event) whose propagation
// produced it — threaded through processing events, MRAI output queues and
// shard merges. With a tracer attached the network additionally accumulates
// a per-event provenance summary: updates received per node type × neighbor
// relation (the live Eq.-1 m·q·e decomposition), path-exploration depth,
// and duplicate/implicit-withdrawal classification.
//
// Propagation rules (see DESIGN.md, "Causal tracing"):
//
//   - BeginCause stamps a fresh CauseID as every shard's active cause; API
//     entry points (Originate, WithdrawPrefix, FailLink, RestoreLink) run
//     under it, so the first wave of transmissions inherits the root.
//   - procEvent.Fire sets the firing shard's active cause to the event's
//     cause before anything else, so every update transmitted while
//     processing it — and the updateHook record — inherits the cause of
//     the update that triggered it. (An update deliver completes at
//     admission fires no event and sets nothing: it runs inside the sender's
//     fan-out, whose later sends must keep the sender's cause, and a silent
//     node transmits nothing that could inherit one.)
//   - An update queued behind an MRAI timer carries its cause in the
//     pendingUpdate; a newer update for the same prefix replaces the queued
//     one together with its cause (coalescing attributes the eventual send
//     to the newest invalidating cause, matching the paper's "queued update
//     invalidated by a new update is removed"). The flush events restore
//     each drained update's cause before transmitting it.
//   - Cross-shard wire messages carry the cause through the barrier merge;
//     canonical (arrival, sender, seq) admission order is untouched.
//
// The tracer is inert by construction: it never mutates engine state,
// consumes randomness or reads anything that feeds a decision, so traced
// runs are byte-identical to bare ones at every shard count (the
// determinism tier proves it). Cause IDs ride existing event structs — no
// per-event allocation — and with no tracer attached every accounting site
// is a single nil-check.

import (
	"fmt"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// CauseID identifies one root cause: a phase of a C-event (withdraw or
// re-announce) or a link event. IDs are assigned by BeginCause, start at 1
// and stay unique for the lifetime of the Network (Reset does not rewind
// them). 0 means "no cause" (tracing off, or activity outside any event).
type CauseID uint32

// CauseKind classifies a root cause.
type CauseKind uint8

const (
	// CauseNone is the zero kind.
	CauseNone CauseKind = iota
	// CauseWithdraw is the DOWN half of a C-event: the origin withdraws.
	CauseWithdraw
	// CauseAnnounce is the UP half of a C-event: the origin re-announces.
	CauseAnnounce
	// CauseLinkFail is a link failure event.
	CauseLinkFail
	// CauseLinkRestore is a link restoration event.
	CauseLinkRestore
)

// String returns a short stable name for the cause kind.
func (k CauseKind) String() string {
	switch k {
	case CauseNone:
		return "none"
	case CauseWithdraw:
		return "withdraw"
	case CauseAnnounce:
		return "announce"
	case CauseLinkFail:
		return "link-fail"
	case CauseLinkRestore:
		return "link-restore"
	}
	return fmt.Sprintf("CauseKind(%d)", uint8(k))
}

// RelAttribution is one (node type, relation) cell of an event's Eq.-1
// decomposition: how many updates nodes of the type received over sessions
// of the relation, how many of those sessions were active (received at
// least one update), and how many such sessions exist at all — the raw
// ingredients of U = m·q·e.
type RelAttribution struct {
	// Updates is the number of updates received over sessions of this
	// relation at nodes of this type during the event.
	Updates uint64
	// Active is the number of those sessions that received >= 1 update.
	Active uint64
	// Sessions is the total number of such sessions in the topology
	// (static: nodes of the type × their neighbors of the relation).
	Sessions uint64
}

// TypeAttribution is one node type's slice of an event's provenance: the
// per-relation Eq.-1 cells plus the type's path-exploration depth.
type TypeAttribution struct {
	// ByRel indexes RelAttribution by topology.Relation (Customer, Peer,
	// Provider).
	ByRel [3]RelAttribution
	// Exploration is the number of Loc-RIB best-route changes at nodes of
	// this type during the event (path-exploration depth).
	Exploration uint64
	// Nodes is the number of nodes of this type (static).
	Nodes uint64
}

// EventAttribution is the provenance summary of one routing event: who
// caused it, its virtual-time extent, the update total and its
// classification, and the per-type × per-relation Eq.-1 cells. Produced by
// EndCause; per-event sums reconcile exactly with the aggregate per-node
// counters over the same measurement window.
type EventAttribution struct {
	Cause  CauseID
	Kind   CauseKind
	Origin topology.NodeID
	// Start and End bound the event in virtual time (End is the quiescent
	// instant EndCause was called at).
	Start, End des.Time
	// Updates is the total number of updates processed during the event.
	Updates uint64
	// Duplicates counts updates that left the receiver's Adj-RIB-In entry
	// unchanged (a re-announcement of the held path, or a withdrawal of a
	// route not held).
	Duplicates uint64
	// ImplicitWithdrawals counts announcements that replaced a different
	// held path (RFC 4271 implicit withdrawal).
	ImplicitWithdrawals uint64
	// ExplicitWithdrawals counts withdrawals of a held route.
	ExplicitWithdrawals uint64
	// NewAnnouncements counts announcements installing a route where none
	// was held.
	NewAnnouncements uint64
	// ByType indexes TypeAttribution by topology.NodeType (T, M, CP, C).
	ByType [4]TypeAttribution
}

// MQE returns the live Eq.-1 factors for node type t and relation rel:
// m — mean sessions of the relation per node of the type,
// q — fraction of those sessions active during the event,
// e — mean updates per active session.
// Their product m·q·e is the type's per-node update count over the
// relation, and Σ_rel m·q·e = U(t) for this single event.
func (a *EventAttribution) MQE(t topology.NodeType, rel topology.Relation) (m, q, e float64) {
	ta := &a.ByType[t]
	ra := &ta.ByRel[rel]
	if ta.Nodes > 0 {
		m = float64(ra.Sessions) / float64(ta.Nodes)
	}
	if ra.Sessions > 0 {
		q = float64(ra.Active) / float64(ra.Sessions)
	}
	if ra.Active > 0 {
		e = float64(ra.Updates) / float64(ra.Active)
	}
	return m, q, e
}

// U returns the mean number of updates received per node of type t during
// this event — the paper's U(X) for a single routing event.
func (a *EventAttribution) U(t topology.NodeType) float64 {
	ta := &a.ByType[t]
	if ta.Nodes == 0 {
		return 0
	}
	var sum uint64
	for r := range ta.ByRel {
		sum += ta.ByRel[r].Updates
	}
	return float64(sum) / float64(ta.Nodes)
}

// Stats flattens the attribution into short stable keys, the form span
// records and progress streams carry. Classification and exploration
// totals, plus U/m/q/e per node type × relation.
func (a *EventAttribution) Stats() map[string]float64 {
	s := map[string]float64{
		"updates":   float64(a.Updates),
		"dup":       float64(a.Duplicates),
		"implicit":  float64(a.ImplicitWithdrawals),
		"explicit":  float64(a.ExplicitWithdrawals),
		"new":       float64(a.NewAnnouncements),
		"virtual_s": (a.End - a.Start).Seconds(),
	}
	rels := [...]topology.Relation{topology.Customer, topology.Peer, topology.Provider}
	for _, t := range topology.NodeTypes {
		ta := &a.ByType[t]
		s["explore_"+t.String()] = float64(ta.Exploration)
		s["U_"+t.String()] = a.U(t)
		for _, rel := range rels {
			m, q, e := a.MQE(t, rel)
			key := t.String() + "_" + rel.String()
			s["m_"+key] = m
			s["q_"+key] = q
			s["e_"+key] = e
			s["u_"+key] = float64(ta.ByRel[rel].Updates)
		}
	}
	return s
}

// eventTally is one shard's share of the running event accounting. Shards
// write only their own tally during parallel windows; the barrier
// WaitGroup orders EndCause's reads after every write.
type eventTally struct {
	updates   uint64
	dup       uint64
	implicit  uint64
	explicitW uint64
	newAnn    uint64
	// exploration counts best-route changes at the shard's nodes, by type.
	exploration [4]uint64
}

// causalTrace is the per-network tracer state (nil when tracing is off).
type causalTrace struct {
	// slotCount[nd.row+j] counts updates node nd received from neighbor slot
	// j during the current event (parallel to the CSR adjacency, like every
	// per-session array). Writes are shard-disjoint: a node's row is written
	// only by the shard owning the node.
	slotCount []uint32
	// tallies is indexed by shard index.
	tallies []eventTally
	// nextID hands out cause IDs; monotone for the Network's lifetime.
	nextID CauseID
	// Current event, set by BeginCause.
	root   CauseID
	kind   CauseKind
	origin topology.NodeID
	start  des.Time
	// Static topology attribution denominators.
	typeNodes    [4]uint64
	typeSessions [4][3]uint64
}

// EnableCausalTrace attaches the causal tracer: from the next BeginCause
// on, updates carry root-cause IDs and the network accumulates per-event
// attribution. Idempotent; survives Reset and Grow (build re-sizes it).
// Tracing changes no results — only what is observed.
func (net *Network) EnableCausalTrace() {
	if net.causal == nil {
		net.causal = &causalTrace{}
	}
	net.attachCausal()
}

// CausalTraceEnabled reports whether the causal tracer is attached.
func (net *Network) CausalTraceEnabled() bool { return net.causal != nil }

// attachCausal (re)sizes the tracer for the current topology and shard
// array; called by EnableCausalTrace and by build (so Grow keeps tracing
// attached across the rebuild). No-op when no tracer is attached.
func (net *Network) attachCausal() {
	tr := net.causal
	if tr == nil {
		return
	}
	sessions := len(net.adj.IDs)
	if cap(tr.slotCount) < sessions {
		tr.slotCount = make([]uint32, sessions)
	} else {
		tr.slotCount = tr.slotCount[:sessions]
	}
	tr.tallies = make([]eventTally, len(net.shards))
	tr.typeNodes = [4]uint64{}
	tr.typeSessions = [4][3]uint64{}
	for i := range net.nodes {
		nd := &net.nodes[i]
		tr.typeNodes[nd.typ]++
		for _, rel := range net.nbrRels(nd) {
			tr.typeSessions[nd.typ][rel]++
		}
	}
}

// BeginCause opens a new root cause of the given kind originating at
// origin (topology.None for network-wide events): the per-event
// accumulators are cleared and every shard's active cause is set, so API
// calls and the propagation they trigger are attributed to the new cause.
// Returns 0 (and does nothing) when tracing is off.
func (net *Network) BeginCause(kind CauseKind, origin topology.NodeID) CauseID {
	tr := net.causal
	if tr == nil {
		return 0
	}
	tr.nextID++
	tr.root, tr.kind, tr.origin, tr.start = tr.nextID, kind, origin, net.Now()
	clear(tr.slotCount)
	clear(tr.tallies)
	for _, sh := range net.shards {
		sh.activeCause = tr.root
	}
	return tr.root
}

// EndCause closes the current root cause and returns its attribution: one
// O(sessions) scan groups the per-slot receive counts by node type ×
// relation, and the shard tallies are summed. Call it at quiescence (after
// Run); the zero value is returned when tracing is off or no cause is
// open.
func (net *Network) EndCause() EventAttribution {
	tr := net.causal
	if tr == nil || tr.root == 0 {
		return EventAttribution{}
	}
	a := EventAttribution{
		Cause:  tr.root,
		Kind:   tr.kind,
		Origin: tr.origin,
		Start:  tr.start,
		End:    net.Now(),
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		ta := &a.ByType[nd.typ]
		for j, rel := range net.nbrRels(nd) {
			c := tr.slotCount[nd.row+int32(j)]
			if c == 0 {
				continue
			}
			ta.ByRel[rel].Updates += uint64(c)
			ta.ByRel[rel].Active++
		}
	}
	for k := range tr.tallies {
		t := &tr.tallies[k]
		a.Updates += t.updates
		a.Duplicates += t.dup
		a.ImplicitWithdrawals += t.implicit
		a.ExplicitWithdrawals += t.explicitW
		a.NewAnnouncements += t.newAnn
		for typ := range t.exploration {
			a.ByType[typ].Exploration += t.exploration[typ]
		}
	}
	for typ := range a.ByType {
		a.ByType[typ].Nodes = tr.typeNodes[typ]
		for r := range a.ByType[typ].ByRel {
			a.ByType[typ].ByRel[r].Sessions = tr.typeSessions[typ][r]
		}
	}
	tr.root = 0
	return a
}

// record accounts one processed update for the current event: the
// receiver's (node, slot) cell plus the classification tally. same reports
// whether the update left the receiver's Adj-RIB-In entry unchanged;
// hadNone whether no route was held from the sender before it. Runs on the
// receiver's shard.
func (tr *causalTrace) record(sh *netShard, to *node, fromSlot int32, kind UpdateKind, same, hadNone bool) {
	tr.slotCount[to.row+fromSlot]++
	t := &tr.tallies[sh.idx]
	t.updates++
	if kind == Withdraw {
		if hadNone {
			t.dup++
		} else {
			t.explicitW++
		}
		return
	}
	switch {
	case hadNone:
		t.newAnn++
	case same:
		t.dup++
	default:
		t.implicit++
	}
}
