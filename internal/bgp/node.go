package bgp

import (
	"slices"

	"bgpchurn/internal/des"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/topology"
)

// Sentinel values for prefixState.bestSlot.
const (
	selfSlot = -1 // the node originates the prefix itself
	noneSlot = -2 // no route
)

// session is one CSR slot's receive-side record: everything the decision
// path needs to know about what the neighbor at that slot told us, packed so
// that a whole row of neighbors is a few contiguous cache lines (four
// sessions per line). The network-wide row array (Network.sess) is parallel
// to the topology's CSR adjacency; node i's row starts at node.row.
//
//   - id is the Adj-RIB-In entry for the node's first prefix: the interned
//     ID of the path most recently announced by the neighbor (NoPath = none).
//   - rank packs the two leading steps of the decision process into one
//     integer that orders like them: the neighbor relation in the top two
//     bits (Customer < Peer < Provider, i.e. descending local preference)
//     above the cached length of path id in the low 30 (0 without a route).
//     A lower rank wins. The relation bits are written once at build time
//     and serve every hot-path relation test.
//   - tie is the top half of the neighbor's decision tie-break hash ("hashed
//     value of the node IDs"), consulted only between equal ranks. Two
//     neighbors whose top halves collide (2^-32) are ordered by the full
//     hash, recomputed on the spot (see tieLess).
//   - recv counts the updates received over the session in the current
//     measurement window.
type session struct {
	id   PathID
	rank uint32
	tie  uint32
	recv uint32
}

const (
	rankRelShift = 30
	rankLenMask  = 1<<rankRelShift - 1
)

// rel returns the neighbor's relation as seen from the row's node.
func (s *session) rel() topology.Relation { return topology.Relation(s.rank >> rankRelShift) }

// install records the route the neighbor now advertises (NoPath, 0 for
// none), keeping the relation bits.
func (s *session) install(id PathID, plen int) {
	s.id = id
	s.rank = s.rank&^rankLenMask | uint32(plen)
}

// blank returns s without route and receive count: relation and tie-break
// only.
func (s session) blank() session {
	return session{rank: s.rank &^ rankLenMask, tie: s.tie}
}

// prefixState is a node's routing state for one prefix: the Adj-RIB-In
// (best route learned per neighbor) and the selected best route, every path
// held as its interned ID. One cache line; the fields an update that leaves
// the best route alone needs come first.
type prefixState struct {
	// bestSlot is the neighbor slot of the selected route, selfSlot or
	// noneSlot.
	bestSlot int32
	// bestID is the selected route's path as received (NoPath for
	// selfSlot/noneSlot). The decision-change test in applyDecision is an
	// ID compare: hash-consing makes equal IDs ⟺ equal content.
	bestID PathID
	// fullID caches the advertisement body for the current best route: the
	// best path prepended with the node's own ID ([self] for a
	// self-originated prefix), valid while fullValid. advertisement builds
	// it lazily and applyDecision invalidates it, so a decision change pays
	// for exactly one prepend no matter how many neighbors, resyncs or
	// consistency checks read it. The ID is threaded into output queues and
	// update events so receivers install routes without re-hashing.
	fullID    PathID
	fullValid bool
	// selfOrigin marks the node as the owner currently announcing the
	// prefix.
	selfOrigin bool
	// dampened is damp != nil, kept beside the other hot flags so the
	// decision scan of an undampened prefix never reads the slice header.
	dampened bool
	// damp is the per-neighbor flap-dampening state, allocated on the
	// first flap (nil while the prefix never flapped or dampening is off).
	damp []dampState
	// own holds the Adj-RIB-In rows of a prefix other than the node's first
	// (relation and tie-break copied from the node's flat row, recv
	// unused). The first prefix has none: its Adj-RIB-In IS the node's row
	// of Network.sess, so the single-prefix workload of a C-event keeps the
	// whole Adj-RIB-In in that contiguous block with zero allocation.
	// Always reach the rows through Network.rib.
	own []session
}

// reset rewinds ps to the no-route state while keeping its allocations
// (own rows and damp storage), so Network.Reset can recycle it. The flat
// session row behind a node's first prefix is rewound by reinit.
func (ps *prefixState) reset() {
	for j := range ps.own {
		ps.own[j] = ps.own[j].blank()
	}
	ps.bestSlot = noneSlot
	ps.bestID = NoPath
	ps.fullValid = false
	ps.fullID = NoPath
	ps.selfOrigin = false
	clear(ps.damp)
}

// prefixTable holds a node's per-prefix routing state. The paper's workload
// is one prefix per C-event, so the first prefix a node meets gets the
// inline state — no allocation, no pointer chase, and its Adj-RIB-In is the
// node's row of the flat session array. Further prefixes live behind one
// lazily allocated pointer.
type prefixTable struct {
	firstKey Prefix
	hasFirst bool
	more     *prefixSpill
	first    prefixState
}

// prefixSpill is the multi-prefix remainder of a prefixTable.
type prefixSpill struct {
	m map[Prefix]*prefixState
	// free recycles the states released by Network.Reset, so repeated
	// C-events on one Network reuse their rib/damp storage.
	free []*prefixState
}

// Get returns the state for f and whether the node has one.
func (pt *prefixTable) Get(f Prefix) (*prefixState, bool) {
	if pt.hasFirst && pt.firstKey == f {
		return &pt.first, true
	}
	if pt.more != nil {
		ps, ok := pt.more.m[f]
		return ps, ok
	}
	return nil, false
}

// Len returns the number of prefixes with state.
func (pt *prefixTable) Len() int {
	n := 0
	if pt.hasFirst {
		n = 1
	}
	if pt.more != nil {
		n += len(pt.more.m)
	}
	return n
}

// ForEach calls fn for every state in unspecified order. Callers that need
// determinism must use sortedKeys instead.
func (pt *prefixTable) ForEach(fn func(Prefix, *prefixState)) {
	if pt.hasFirst {
		fn(pt.firstKey, &pt.first)
	}
	if pt.more != nil {
		for f, ps := range pt.more.m {
			fn(f, ps)
		}
	}
}

// sortedKeys returns the known prefixes in ascending order. Cold path (link
// events, consistency checks).
func (pt *prefixTable) sortedKeys() []Prefix {
	keys := make([]Prefix, 0, pt.Len())
	pt.ForEach(func(f Prefix, _ *prefixState) { keys = append(keys, f) })
	slices.Sort(keys)
	return keys
}

// recycle resets every state and returns the spilled ones to the free list.
func (pt *prefixTable) recycle() {
	if pt.hasFirst {
		pt.first.reset()
		pt.hasFirst = false
	}
	if sp := pt.more; sp != nil {
		for _, ps := range sp.m {
			ps.reset()
			sp.free = append(sp.free, ps)
		}
		clear(sp.m)
	}
}

// pendingUpdate is an update waiting in an output queue for its MRAI timer.
type pendingUpdate struct {
	path Path
	// id is the interned ID of path.
	id PathID
	// cause is the root cause of the queued update. A newer update for the
	// same prefix replaces the whole pendingUpdate — cause included — so
	// MRAI coalescing attributes the eventual send to the newest
	// invalidating cause.
	cause CauseID
	kind  UpdateKind
}

// prefixTimer is the PerPrefix-scope MRAI timer of one (session, prefix)
// pair and, like outQueue for the per-interface timer, its own flush event:
// scheduled admits at most one pending firing, so the object is never in
// the scheduler twice with different meanings.
type prefixTimer struct {
	q         *outQueue
	expiry    des.Time
	prefix    Prefix
	scheduled bool
}

// outQueue is the per-neighbor output state: the MRAI timer, the queue of
// rate-limited updates, and the Adj-RIB-Out (what is currently on the wire).
// The per-prefix tables are prefixMaps: the paper's workload is one prefix
// per C-event, so the dominant case is a single inline entry with no map
// allocation at all.
//
// An outQueue is also the flush event of its own per-interface MRAI timer
// (see Fire): scheduled admits at most one pending flush per queue, and the
// event carries no payload beyond the queue's identity, so no event object
// is ever allocated or pooled.
type outQueue struct {
	// lastSent is the Adj-RIB-Out: the path currently advertised to this
	// neighbor per prefix. Absence means not advertised (never, or
	// withdrawn).
	lastSent prefixMap[Path]
	// slot is the queue's neighbor slot at nd.
	slot int32
	// scheduled marks a pending flush event for this queue (PerInterface).
	scheduled bool
	// down marks a failed link; no updates flow and state is cleared.
	down bool
	// expiry is when the per-interface MRAI timer expires; a value <= now
	// means the timer is idle. Used only with PerInterface scope.
	expiry des.Time
	// nd is the node owning the queue.
	nd *node
	// pending holds the latest not-yet-sent update per prefix. A newer
	// update for the same prefix replaces the queued one (the paper's
	// "queued update invalidated by a new update is removed").
	pending prefixMap[pendingUpdate]
	// prefixTimers holds the PerPrefix-scope timers, allocated on first use
	// and kept (rewound) across Reset. Nil under PerInterface scope.
	prefixTimers map[Prefix]*prefixTimer
}

// prefixTimer returns the PerPrefix timer for f, creating it on first use.
func (q *outQueue) prefixTimer(f Prefix) *prefixTimer {
	if t := q.prefixTimers[f]; t != nil {
		return t
	}
	if q.prefixTimers == nil {
		q.prefixTimers = make(map[Prefix]*prefixTimer, 1)
	}
	t := &prefixTimer{q: q, prefix: f}
	q.prefixTimers[f] = t
	return t
}

// clearTimers rewinds every MRAI timer of the queue to idle and unarmed.
// Flush events already in the scheduler stay there; they find nothing to do.
func (q *outQueue) clearTimers() {
	q.expiry, q.scheduled = 0, false
	for _, t := range q.prefixTimers {
		t.expiry, t.scheduled = 0, false
	}
}

// inMsg is one received update: the delivery payload plus the scheduler
// ticket reserved for it at admission time. It is both the element type of a
// receiver's inbox and the payload of the receiver's in-flight delivery
// (node.cur). The path is held as pointer + length — engine paths always
// have cap == len — which is what keeps the struct at 48 bytes and node.cur
// inside the node's first two cache lines.
type inMsg struct {
	tk       des.Ticket
	pathPtr  *topology.NodeID
	pathLen  int32
	fromSlot int32
	prefix   Prefix
	pathID   PathID  // interned ID of the path
	cause    CauseID // root cause of the update (0 when tracing is off)
	kind     UpdateKind
}

// node is one AS in the simulation and, at the same time, the completion
// event of the update its single processor is working on (see Fire). All
// per-neighbor state lives in rows of flat arrays parallel to the topology's
// CSR adjacency — the neighbor IDs, relations and reverse slots in the
// shared Adjacency itself, the session records and output queues in the
// Network — and a node addresses its rows through one offset (row)
// and a length (deg) instead of carrying a slice header per array.
//
// Field order is the cache-line budget (DESIGN.md, "Kernel memory model"):
// everything deliver touches sits in the first 128 bytes; the third line
// holds what Fire and the decision process read when the best route stays
// put; the fourth is read only with dampening on, a second prefix or the
// windowed executor. The struct is exactly four 64-byte lines, so in the
// (page-aligned) node array no field group ever straddles more lines than
// it has to. TestKernelLayoutBudget pins it.
//
// The measurement-window counters are 32-bit: every update a node receives,
// sends or reacts to consumes one scheduler sequence number — deliver
// reserves a ticket for an update it completes at admission too, redeemed or
// not — and the scheduler refuses to hand out more than 2^32 per Reset
// (des.Reserve), so they cannot wrap.
type node struct {
	// sh is the shard owning this node: its event queue and counters (the
	// inline engine has exactly one shard).
	sh *netShard
	// busyUntil models the single update processor with its FIFO queue: a
	// message arriving at t completes processing at max(t, busyUntil) + d.
	busyUntil des.Time
	// src is the node's private randomness stream (processing delays,
	// MRAI jitter).
	src rng.Source
	// inbox holds messages waiting behind the one delivery this node keeps
	// in the scheduler queue (inboxHead indexes the front; delivering is
	// true while that delivery is pending). Each message carries the
	// scheduler ticket reserved at transmit time, so deferred insertion
	// cannot change the global fire order — it only keeps the hot event
	// queue at one entry per busy receiver instead of one per in-flight
	// message.
	inbox      []inMsg
	inboxHead  int32
	delivering bool
	typ        topology.NodeType
	// sink: the node has no customer session, so under no-valley export a
	// route it learns goes nowhere; only a prefix of its own ever leaves it.
	// spoke: since the last Reset it has originated a prefix or been given an
	// Adj-RIB-Out entry (send, WarmStart). A sink that never spoke has empty
	// output queues and nothing to say, which is what lets deliver complete
	// its updates at admission (see silent).
	sink  bool
	spoke bool
	// cur is the delivery in flight: the payload of the event this node is
	// while delivering is true.
	cur inMsg

	id topology.NodeID
	// row is the node's first slot in every flat per-session array (its CSR
	// row start); deg is its neighbor count.
	row, deg int32
	// Measurement-window counters (reset by Network.ResetCounters).
	// bestChanges counts Loc-RIB best-route changes (path exploration
	// depth); suppressions counts dampening suppression episodes.
	recvAnnounce uint32
	recvWithdraw uint32
	sentUpdates  uint32
	bestChanges  uint32
	suppressions uint32
	// prefixes holds per-prefix routing state, created on first contact.
	prefixes prefixTable
	// msgSeq numbers this node's transmitted updates in windowed mode; the
	// (arrival, sender, msgSeq) triple is the canonical barrier-admission
	// order that makes results independent of the shard count.
	msgSeq uint64
	_      [8]byte // rounds the struct up to its fourth line
}

// silent reports whether processing an update at nd can have no effect
// outside nd: it has no customer to export a learned route to, originates
// nothing, and every one of its output queues is empty, so whatever best
// route it selects, reconcile would find every neighbor unexportable and
// every Adj-RIB-Out already empty.
func (nd *node) silent() bool { return nd.sink && !nd.spoke }

// Per-node rows of the flat per-session arrays. Slot j of node nd is element
// nd.row+j of each array; the accessors below cut the row out for code that
// walks it.

func (net *Network) nbrIDs(nd *node) []topology.NodeID {
	return net.adj.IDs[nd.row : nd.row+nd.deg]
}

func (net *Network) nbrRels(nd *node) []topology.Relation {
	return net.adj.Rels[nd.row : nd.row+nd.deg]
}

func (net *Network) reverse(nd *node) []int32 {
	return net.adj.Reverse[nd.row : nd.row+nd.deg]
}

func (net *Network) sessions(nd *node) []session {
	return net.sess[nd.row : nd.row+nd.deg : nd.row+nd.deg]
}

func (net *Network) out(nd *node) []outQueue {
	return net.outq[nd.row : nd.row+nd.deg]
}

// rib returns the Adj-RIB-In rows of ps, a prefixState of nd: the node's
// flat session row for its first prefix, private rows otherwise.
func (net *Network) rib(nd *node, ps *prefixState) []session {
	if ps == &nd.prefixes.first {
		return net.sessions(nd)
	}
	return ps.own
}

// tieLess reports whether neighbor slot a of nd beats slot b in the final
// decision tie-break: the lower ID hash wins. The decision scans inline the
// session.tie compare and come here only when the top halves collide.
func (net *Network) tieLess(nd *node, a, b int32) bool {
	ka, kb := nd.row+a, nd.row+b
	if ta, tb := net.sess[ka].tie, net.sess[kb].tie; ta != tb {
		return ta < tb
	}
	return hashID(net.salt, net.adj.IDs[ka]) < hashID(net.salt, net.adj.IDs[kb])
}

// state returns the node's prefixState for f, creating it on first use: the
// inline first state, then recycled or freshly allocated spill states.
func (net *Network) state(nd *node, f Prefix) *prefixState {
	pt := &nd.prefixes
	if ps, ok := pt.Get(f); ok {
		return ps
	}
	if !pt.hasFirst {
		// Nothing spills before the inline state is taken, and recycle
		// releases both together.
		pt.firstKey, pt.hasFirst = f, true
		return &pt.first
	}
	if pt.more == nil {
		pt.more = &prefixSpill{m: make(map[Prefix]*prefixState, 2)}
	}
	sp := pt.more
	var ps *prefixState
	if n := len(sp.free); n > 0 {
		ps = sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
	} else {
		ps = &prefixState{bestSlot: noneSlot, own: make([]session, nd.deg)}
	}
	// Private rows: the flat row's relations and this epoch's tie-breaks (a
	// recycled state carries the last epoch's), no routes.
	for j, s := range net.sessions(nd) {
		ps.own[j] = s.blank()
	}
	sp.m[f] = ps
	return ps
}

// decide runs the BGP decision process over the Adj-RIB-In: highest local
// preference (customer > peer > provider), then shortest AS path — together
// the lowest session rank, one integer compare — then the ID hash (almost
// always one compare on session.tie), then (vanishingly unlikely) the lower
// slot, so the scan reads nothing but the row itself. A self-originated
// prefix always wins. Returns the ID of the winning path (NoPath for
// selfSlot/noneSlot).
func (net *Network) decide(nd *node, ps *prefixState) (slot int32, id PathID) {
	if ps.selfOrigin {
		return selfSlot, NoPath
	}
	rows := net.rib(nd, ps)
	best := int32(noneSlot)
	var bestRank, bestTie uint32
	for j := range rows {
		s := &rows[j]
		if s.id == NoPath || ps.suppressedAt(j) {
			continue
		}
		if best == noneSlot || s.rank < bestRank || (s.rank == bestRank &&
			(s.tie < bestTie || (s.tie == bestTie && net.tieLess(nd, int32(j), best)))) {
			best, bestRank, bestTie = int32(j), s.rank, s.tie
		}
	}
	if best == noneSlot {
		return noneSlot, NoPath
	}
	return best, rows[best].id
}

// bestPath returns the selected route's path as received (nil when bestSlot
// is selfSlot/noneSlot). Cold paths only; the engine compares IDs.
func (net *Network) bestPath(ps *prefixState) Path { return net.intern.path(ps.bestID) }

// advertisement returns the full AS path nd advertises for ps (nil when it
// has no route) and whether the best route came from a customer or is
// self-originated (the no-valley export predicate). The body is interned —
// the same [self, best...] content network-wide shares one slab entry and
// one PathID — at most once per best-route change (see prefixState.fullID).
func (net *Network) advertisement(nd *node, ps *prefixState) (full Path, fromCustomerOrSelf bool) {
	if ps.bestSlot == noneSlot {
		return nil, false
	}
	if ps.fullValid {
		full = net.intern.path(ps.fullID)
	} else {
		// The best path is nil for a self-originated prefix: [self].
		full, ps.fullID = net.intern.prepend(nd.id, net.bestPath(ps))
		ps.fullValid = true
	}
	return full, ps.bestSlot == selfSlot || net.sess[nd.row+ps.bestSlot].rel() == topology.Customer
}

// exportable reports whether the best route with advertisement body full
// may be sent to a neighbor nbr of relation rel under the no-valley policy.
// full must be the best path prepended with the node's own ID (computed
// once by the caller); fromCustomerOrSelf says the best route was learned
// from a customer or originated locally.
func exportable(nbr topology.NodeID, rel topology.Relation, full Path, fromCustomerOrSelf bool) bool {
	if full == nil {
		return false
	}
	// No-valley: routes from peers/providers go only to customers; routes
	// from customers (or our own prefixes) go to everyone.
	if !fromCustomerOrSelf && rel != topology.Customer {
		return false
	}
	// Sender-side loop detection: never advertise a path through the
	// recipient (this also suppresses the advertisement to the next hop,
	// the paper's "unless its preferred path goes through the customer
	// itself").
	return !full.Contains(nbr)
}

// hashID mixes a node ID with the simulation salt for decision tie-breaks.
func hashID(salt uint64, id topology.NodeID) uint64 {
	z := salt ^ (uint64(uint32(id))+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
