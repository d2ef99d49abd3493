package bgp

// Per-event churn attribution. The paper measures churn one routing event at
// a time (§4): the origin withdraws or re-announces, or a link fails or
// comes back, and the network converges. For the one event open at a time
// the network reports a provenance summary: updates received per node type
// × neighbor relation (the live Eq.-1 m·q·e decomposition), path-exploration
// depth, and duplicate/implicit-withdrawal classification.
//
// An event is a window on the engine's counters (see DESIGN.md, "Causal
// tracing"): BeginCause records them, EndCause returns what changed since.
// Updates carry no cause of their own: the API admits no second open event,
// so which event an update belongs to is when it is processed, and the
// propagation, MRAI queues and shard merges need not know. Nothing here
// writes engine state, so attributed runs are byte-identical to bare ones.

import (
	"fmt"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// CauseID identifies one root cause: a phase of a C-event (withdraw or
// re-announce) or a link event. IDs are assigned by BeginCause, start at 1
// and stay unique for the lifetime of the Network (Reset does not rewind
// them). 0 means "no cause": no event open.
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

// MQE returns the Eq.-1 factors of the type's updates over relation rel,
// each a ratio of the cells' sums:
// m — sessions of the relation per node of the type,
// q — the fraction of those sessions that were active,
// e — updates per active session.
// Their product m·q·e is the updates received over the relation per node of
// the type, and Σ_rel m·q·e = U(). Cells summed over several events or
// origins give the factors of the whole set, which close the same way.
func (ta *TypeAttribution) MQE(rel topology.Relation) (m, q, e float64) {
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

// U returns the mean number of updates received per node of the type — the
// paper's U(X) for the events the cells cover.
func (ta *TypeAttribution) U() float64 {
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
		s["U_"+t.String()] = ta.U()
		for _, rel := range rels {
			m, q, e := ta.MQE(rel)
			key := t.String() + "_" + rel.String()
			s["m_"+key] = m
			s["q_"+key] = q
			s["e_"+key] = e
			s["u_"+key] = float64(ta.ByRel[rel].Updates)
		}
	}
	return s
}

// openCause is the event BeginCause opened (id 0: none) and the engine's
// counters as of then.
type openCause struct {
	id     CauseID
	kind   CauseKind
	origin topology.NodeID
	start  des.Time
	// recv is every session's receive counter, parallel to Network.sess;
	// its capacity is reused from event to event.
	recv []uint32
	// changes is the sum of nodes' best-route changes, by node type.
	changes [4]uint64
	// kinds is the shards' update-kind counts summed (see netShard.kinds).
	kinds [8]uint64
}

// Update kinds: the cell of netShard.kinds an update is counted in is
// withdrawal<<2 | held-nothing<<1 | same-path, read off the receiver's
// Adj-RIB-In entry before the update is installed.
const (
	kindWithdraw = 4
	kindHadNone  = 2
	kindSame     = 1
)

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint {
	var u uint
	if b {
		u = 1
	}
	return u
}

// kindCounts returns the shards' update-kind counts summed.
func (net *Network) kindCounts() [8]uint64 {
	var k [8]uint64
	for _, sh := range net.shards {
		for i, c := range sh.kinds {
			k[i] += c
		}
	}
	return k
}

// BeginCause opens a new root cause of the given kind originating at
// origin (topology.None for network-wide events) and returns its ID: it
// records the engine's counters, so every update processed from now until
// EndCause — the propagation of the API calls that follow — is attributed
// to the new cause.
func (net *Network) BeginCause(kind CauseKind, origin topology.NodeID) CauseID {
	c := &net.cause
	net.nextCause++
	c.id, c.kind, c.origin, c.start = net.nextCause, kind, origin, net.Now()
	c.recv = recvCounts(c.recv[:0], net.sess)
	c.changes = [4]uint64{}
	for i := range net.nodes {
		nd := &net.nodes[i]
		c.changes[nd.typ] += uint64(nd.bestChanges)
	}
	c.kinds = net.kindCounts()
	return c.id
}

// EndCause closes the current root cause and returns its attribution, the
// change of the engine's counters since BeginCause: the Eq.-1 cells of the
// receive counts that grew (typeCells), and the shards' kind counts folded
// into the four update classes. Call it at quiescence (after Run); the zero
// value is returned when no cause is open — none was begun, or a counter
// reset (ResetCounters, Reset) discarded it.
func (net *Network) EndCause() EventAttribution {
	c := &net.cause
	if c.id == 0 {
		return EventAttribution{}
	}
	a := EventAttribution{
		Cause:  c.id,
		Kind:   c.kind,
		Origin: c.origin,
		Start:  c.start,
		End:    net.Now(),
		ByType: net.typeCells(c.recv, c.changes),
	}
	c.id = 0
	k := net.kindCounts()
	for i := range k {
		k[i] -= c.kinds[i]
		a.Updates += k[i]
	}
	// A withdrawal of a held route is explicit, of none a duplicate. An
	// announcement installing a route where none was held is new (a looped
	// one is installed as a withdrawal, so it may also match), one of the
	// held path a duplicate, and any other an implicit withdrawal. A
	// withdrawal matches the held entry exactly when none is held, so
	// cells 5 and 6 stay empty.
	a.Duplicates = k[kindWithdraw|kindHadNone|kindSame] + k[kindSame]
	a.ExplicitWithdrawals = k[kindWithdraw]
	a.NewAnnouncements = k[kindHadNone] + k[kindHadNone|kindSame]
	a.ImplicitWithdrawals = k[0]
	return a
}

// Attribution returns the Eq.-1 cells of the whole measurement window, every
// update received since the last counter reset (ResetCounters, Reset):
// the same cells and arithmetic as an event's, from a zero baseline. Call it
// at quiescence.
func (net *Network) Attribution() [4]TypeAttribution {
	return net.typeCells(nil, [4]uint64{})
}

// typeCells is one O(sessions) scan: it groups the receive counts that grew
// since recv (parallel to Network.sess; nil is all zeros) by node type ×
// relation, counts the sessions and nodes they are shares of, and takes the
// best-route changes since changes (by node type).
func (net *Network) typeCells(recv []uint32, changes [4]uint64) [4]TypeAttribution {
	var by [4]TypeAttribution
	for i := range net.nodes {
		nd := &net.nodes[i]
		ta := &by[nd.typ]
		ta.Nodes++
		ta.Exploration += uint64(nd.bestChanges)
		rows := net.sessions(nd)
		var was []uint32
		if recv != nil {
			was = recv[nd.row : nd.row+nd.deg]
		}
		for j, rel := range net.nbrRels(nd) {
			ra := &ta.ByRel[rel]
			ra.Sessions++
			d := rows[j].recv
			if was != nil {
				d -= was[j]
			}
			if d > 0 {
				ra.Updates += uint64(d)
				ra.Active++
			}
		}
	}
	for t := range by {
		by[t].Exploration -= changes[t]
	}
	return by
}
