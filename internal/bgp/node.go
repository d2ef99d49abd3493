package bgp

import (
	"slices"
	"unsafe"

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
//   - recv counts the updates received over the session in the current
//     measurement window.
//   - rank packs the three leading steps of the decision process into one
//     integer that orders like them: the neighbor relation in the top two
//     bits (Customer < Peer < Provider, i.e. descending local preference),
//     the cached length of path id in the next 30 (0 without a route), and
//     in the low 32 the top half of the neighbor's decision tie-break hash
//     ("hashed value of the node IDs"). A lower rank wins. The relation bits
//     are written once at build time and serve every hot-path relation test;
//     reinit rewrites the tie-break bits from each epoch's salt. Two
//     neighbors whose tie-break halves collide (2^-32) are ordered by the
//     full hash, recomputed on the spot (see precedes).
type session struct {
	id   PathID
	recv uint32
	rank uint64
}

const (
	rankLenShift = 32
	rankRelShift = 62
	maxPathLen   = 1<<(rankRelShift-rankLenShift) - 1
	rankLenMask  = maxPathLen << rankLenShift
	rankRelMask  = 3 << rankRelShift
)

// rel returns the neighbor's relation as seen from the row's node.
func (s *session) rel() topology.Relation { return topology.Relation(s.rank >> rankRelShift) }

// plen returns the cached length of the path the neighbor advertises.
func (s *session) plen() int { return int(s.rank & rankLenMask >> rankLenShift) }

// install records the route the neighbor now advertises (NoPath, 0 for
// none), keeping the relation and tie-break bits.
func (s *session) install(id PathID, plen int) {
	s.id = id
	s.rank = s.rank&^rankLenMask | uint64(plen)<<rankLenShift
}

// blank returns s without route and receive count: relation and tie-break
// only.
func (s session) blank() session {
	return session{rank: s.rank &^ rankLenMask}
}

// prefixState is a node's routing state for one prefix: the Adj-RIB-In
// (best route learned per neighbor) and the selected best route, every path
// held as its interned ID. 24 bytes: the fields every update reads, and one
// pointer to what only dampening and a node's later prefixes use.
type prefixState struct {
	// bestSlot is the neighbor slot of the selected route, selfSlot or
	// noneSlot.
	bestSlot int32
	// bestID is the selected route's path as received (NoPath for
	// selfSlot/noneSlot). The decision-change test in adopt is an ID
	// compare: hash-consing makes equal IDs ⟺ equal content.
	bestID PathID
	// fullID caches the advertisement body for the current best route: the
	// best path prepended with the node's own ID ([self] for a
	// self-originated prefix), valid while fullValid. advertisement builds
	// it lazily and adopt invalidates it, so a decision change pays
	// for exactly one prepend no matter how many neighbors, resyncs or
	// consistency checks read it. The ID is threaded into output queues and
	// update events so receivers install routes without re-hashing.
	fullID    PathID
	fullValid bool
	// selfOrigin marks the node as the owner currently announcing the
	// prefix.
	selfOrigin bool
	// dampened is cold.damp != nil, kept beside the other hot flags so the
	// decision scan of an undampened prefix never follows cold.
	dampened bool
	// cold is allocated on first use: by the first flap of a dampened
	// prefix, or with the state of a prefix other than the node's first.
	cold *prefixCold
}

// prefixCold is the part of a prefixState that only dampening and a node's
// second and later prefixes use.
type prefixCold struct {
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
	if c := ps.cold; c != nil {
		for j := range c.own {
			c.own[j] = c.own[j].blank()
		}
		clear(c.damp)
	}
	ps.bestSlot = noneSlot
	ps.bestID = NoPath
	ps.fullValid = false
	ps.fullID = NoPath
	ps.selfOrigin = false
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
// rate-limited updates, and the Adj-RIB-Out (what is currently on the wire),
// both tables holding interned PathIDs only. 32 bytes, two queues to a line.
//
// The paper's workload is one prefix per C-event, so both tables share one
// inline prefix key: the Adj-RIB-Out entry is (key, sent), present iff sent
// != NoPath (the Adj-RIB-Out never stores a withdrawal), and the pending
// update is (key, pending), present iff qPending is set. A second distinct
// prefix in either table moves both tables into maps of the queue's spill
// record (qSpilled), which stay authoritative, and allocated across clears,
// for the rest of the queue's life. The records live in the owning shard,
// beside the PerPrefix timers. The queue stores neither its session index
// nor its slot: both follow from its address (queueIndex).
//
// An outQueue is also the flush event of its own per-interface MRAI timer
// (see Fire): qScheduled admits at most one pending flush per queue, and the
// event carries no payload beyond the queue's identity, so no event object
// is ever allocated or pooled.
type outQueue struct {
	// nd is the node owning the queue.
	nd *node
	// expiry is when the per-interface MRAI timer expires; a value <= now
	// means the timer is idle. Used only with PerInterface scope.
	expiry des.Time
	// key is the prefix of the inline entries.
	key Prefix
	// sent is the inline Adj-RIB-Out entry: the ID of the path currently
	// advertised to this neighbor for key, NoPath when none is.
	sent PathID
	// pending is the inline queued update for key (NoPath a withdrawal),
	// valid while qPending is set. A newer update for the same prefix
	// replaces the queued one (the paper's "queued update invalidated by a
	// new update is removed").
	pending PathID
	flags   uint8
}

// outQueue flags.
const (
	qPending   uint8 = 1 << iota // an update for key is queued inline
	qScheduled                   // a flush event for this queue is pending (PerInterface)
	qDown                        // the link failed; no updates flow and state is cleared
	qSpilled                     // both tables live in the spill record's maps
)

// queueSpill is the out-of-line part of an outQueue, kept in its shard's
// spills: the tables' maps once the queue met a second prefix, and the
// PerPrefix-scope timers. Allocated on first use and kept, with its maps and
// timers, across Reset.
type queueSpill struct {
	sent    map[Prefix]PathID
	pending map[Prefix]PathID
	timers  map[Prefix]*prefixTimer
}

// queueIndex returns q's index in qs, a run of output queues that holds it:
// its session index in Network.outq, or its offset in its shard's queues.
func queueIndex(qs []outQueue, q *outQueue) int32 {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(qs)))
	return int32((uintptr(unsafe.Pointer(q)) - base) / unsafe.Sizeof(outQueue{}))
}

func (q *outQueue) down() bool { return q.flags&qDown != 0 }

// spill returns q's spill record, nil when it has none.
func (q *outQueue) spill() *queueSpill {
	sh := q.nd.sh
	if sh.spills == nil {
		return nil
	}
	return sh.spills[queueIndex(sh.outq, q)]
}

// spillRecord returns q's spill record, creating it (and, at the shard's
// first spill, the shard's table of records) on first use.
func (q *outQueue) spillRecord() *queueSpill {
	sh := q.nd.sh
	if sh.spills == nil {
		sh.spills = make([]*queueSpill, len(sh.outq))
	}
	k := queueIndex(sh.outq, q)
	sp := sh.spills[k]
	if sp == nil {
		sp = new(queueSpill)
		sh.spills[k] = sp
	}
	return sp
}

// holds reports whether the inline key can take an entry for f: it is f, or
// no inline entry uses it.
func (q *outQueue) holds(f Prefix) bool {
	return q.key == f || (q.sent == NoPath && q.flags&qPending == 0)
}

// spillTables moves both inline tables into maps of q's spill record and
// returns the record.
func (q *outQueue) spillTables() *queueSpill {
	sp := q.spillRecord()
	sp.sent, sp.pending = make(map[Prefix]PathID, 2), make(map[Prefix]PathID, 2)
	if q.sent != NoPath {
		sp.sent[q.key] = q.sent
	}
	if q.flags&qPending != 0 {
		sp.pending[q.key] = q.pending
	}
	q.key, q.sent, q.pending = 0, NoPath, NoPath
	q.flags = q.flags&^qPending | qSpilled
	return sp
}

// wire returns the ID of the path on the wire for f, and whether there is
// one.
func (q *outQueue) wire(f Prefix) (PathID, bool) {
	if q.flags&qSpilled != 0 {
		id, ok := q.spill().sent[f]
		return id, ok
	}
	if q.sent != NoPath && q.key == f {
		return q.sent, true
	}
	return NoPath, false
}

// setWire records id as what the neighbor holds for f; NoPath (after a
// withdrawal) removes the entry.
func (q *outQueue) setWire(f Prefix, id PathID) {
	switch {
	case q.flags&qSpilled != 0:
		if m := q.spill().sent; id == NoPath {
			delete(m, f)
		} else {
			m[f] = id
		}
	case id == NoPath:
		if q.key == f {
			q.sent = NoPath
		}
	case q.holds(f):
		q.key, q.sent = f, id
	default:
		q.spillTables().sent[f] = id
	}
}

// queued returns the update pending for f, if any.
func (q *outQueue) queued(f Prefix) (PathID, bool) {
	if q.flags&qSpilled != 0 {
		id, ok := q.spill().pending[f]
		return id, ok
	}
	if q.flags&qPending != 0 && q.key == f {
		return q.pending, true
	}
	return NoPath, false
}

// enqueue makes id the update pending for f, replacing any queued one.
func (q *outQueue) enqueue(f Prefix, id PathID) {
	switch {
	case q.flags&qSpilled != 0:
		q.spill().pending[f] = id
	case q.holds(f):
		q.key, q.pending = f, id
		q.flags |= qPending
	default:
		q.spillTables().pending[f] = id
	}
}

// dequeue removes the update pending for f and returns it, if any.
func (q *outQueue) dequeue(f Prefix) (PathID, bool) {
	if q.flags&qSpilled != 0 {
		m := q.spill().pending
		id, ok := m[f]
		if ok {
			delete(m, f)
		}
		return id, ok
	}
	if q.flags&qPending != 0 && q.key == f {
		id := q.pending
		q.pending = NoPath
		q.flags &^= qPending
		return id, true
	}
	return NoPath, false
}

// pendingKeys and sentKeys append the prefixes of the pending updates and
// of the Adj-RIB-Out, ascending, to buf[:0] and return it. They allocate
// only when buf is too small, so a flush that drains into the shard's
// scratch buffer allocates nothing.
func (q *outQueue) pendingKeys(buf []Prefix) []Prefix {
	if q.flags&qSpilled != 0 {
		return sortedInto(q.spill().pending, buf)
	}
	buf = buf[:0]
	if q.flags&qPending != 0 {
		buf = append(buf, q.key)
	}
	return buf
}

func (q *outQueue) sentKeys(buf []Prefix) []Prefix {
	if q.flags&qSpilled != 0 {
		return sortedInto(q.spill().sent, buf)
	}
	buf = buf[:0]
	if q.sent != NoPath {
		buf = append(buf, q.key)
	}
	return buf
}

// sortedInto appends m's keys in ascending order to buf[:0].
func sortedInto(m map[Prefix]PathID, buf []Prefix) []Prefix {
	buf = buf[:0]
	for f := range m {
		buf = append(buf, f)
	}
	slices.Sort(buf)
	return buf
}

// timer returns the PerPrefix timer for f, nil before its first use.
func (q *outQueue) timer(f Prefix) *prefixTimer {
	if sp := q.spill(); sp != nil {
		return sp.timers[f]
	}
	return nil
}

// prefixTimer returns the PerPrefix timer for f, creating it on first use.
func (q *outQueue) prefixTimer(f Prefix) *prefixTimer {
	sp := q.spillRecord()
	if t := sp.timers[f]; t != nil {
		return t
	}
	if sp.timers == nil {
		sp.timers = make(map[Prefix]*prefixTimer, 1)
	}
	t := &prefixTimer{q: q, prefix: f}
	sp.timers[f] = t
	return t
}

// clearRoutes empties the Adj-RIB-Out and the pending updates and rewinds
// every MRAI timer to idle and unarmed, keeping the spill record with its
// maps and timers. Flush events already in the scheduler stay there; they
// find nothing to do.
func (q *outQueue) clearRoutes() {
	q.expiry, q.key, q.sent, q.pending = 0, 0, NoPath, NoPath
	q.flags &^= qPending | qScheduled
	if sp := q.spill(); sp != nil {
		clear(sp.sent)
		clear(sp.pending)
		for _, t := range sp.timers {
			t.expiry, t.scheduled = 0, false
		}
	}
}

// inMsg is one received update: the delivery payload plus the scheduler
// ticket reserved for it at admission time. It is both the element type of a
// receiver's inbox and the payload of the receiver's in-flight delivery
// (node.cur). The update is its path's interned ID — equal IDs ⟺ equal
// content, NoPath a withdrawal — so the struct is 32 bytes and holds no
// pointer the garbage collector must scan.
type inMsg struct {
	tk       des.Ticket
	fromSlot int32
	prefix   Prefix
	pathID   PathID // interned ID of the path; NoPath for a withdrawal
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
// everything deliver touches sits in the first 128 bytes; what Fire and the
// decision process read when the best route stays put follows and ends
// inside the third line; the rest is read only with dampening on, a second
// prefix or the windowed executor. The struct is exactly three 64-byte
// lines, the span the scheduler's look-ahead prefetches, so in the
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
	// recvWithdraw counts withdrawals received; the announcements are the
	// session rows' receive counts less these. bestChanges counts Loc-RIB
	// best-route changes (path exploration depth); suppressions counts
	// dampening suppression episodes.
	recvWithdraw uint32
	sentUpdates  uint32
	bestChanges  uint32
	suppressions uint32
	// prefixes holds per-prefix routing state, created on first contact.
	prefixes prefixTable
	// msgSeq numbers this node's transmitted updates in windowed mode; the
	// (arrival, sender, msgSeq) triple is the canonical barrier-admission
	// order that makes results independent of the shard count. 32 bits, as
	// in wireMsg; transmit panics rather than wrap it.
	msgSeq uint32
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
	return ps.cold.own
}

// precedes is the decision order, the one definition of it: whether route
// sa, received at neighbor slot a of nd, beats route sb at slot b. Highest
// local preference (customer > peer > provider), then shortest AS path, then
// the lower ID hash: one compare of the session ranks, which hold all three
// (the hash as its top half), and only when the halves collide the full
// hashes recomputed. hashID is a bijection and neighbors are distinct, so
// the order is strict and total: the winner of a set of routes does not
// depend on the order they are compared in. decide's scan, decideAfter's
// one-row step and WarmStart all use it.
func (net *Network) precedes(nd *node, a int32, sa session, b int32, sb session) bool {
	if sa.rank != sb.rank {
		return sa.rank < sb.rank
	}
	return net.hashLess(nd, a, b)
}

// hashLess compares the full decision tie-break hashes of nd's neighbors at
// slots a and b.
func (net *Network) hashLess(nd *node, a, b int32) bool {
	return hashID(net.salt, net.adj.IDs[nd.row+a]) < hashID(net.salt, net.adj.IDs[nd.row+b])
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
		// The state and its cold part are one allocation.
		b := &struct {
			ps prefixState
			c  prefixCold
		}{ps: prefixState{bestSlot: noneSlot}, c: prefixCold{own: make([]session, nd.deg)}}
		b.ps.cold = &b.c
		ps = &b.ps
	}
	// Private rows: the flat row's relations and this epoch's tie-breaks (a
	// recycled state carries the last epoch's), no routes.
	for j, s := range net.sessions(nd) {
		ps.cold.own[j] = s.blank()
	}
	sp.m[f] = ps
	return ps
}

// decide runs the BGP decision process over the Adj-RIB-In: the first route
// in the decision order (precedes) among those present and not suppressed by
// dampening. A self-originated prefix always wins. Returns the ID of the
// winning path (NoPath for selfSlot/noneSlot).
func (net *Network) decide(nd *node, ps *prefixState) (slot int32, id PathID) {
	if ps.selfOrigin {
		return selfSlot, NoPath
	}
	rows := net.rib(nd, ps)
	best := int32(noneSlot)
	var bs session
	for j, s := range rows {
		if s.id == NoPath || ps.suppressedAt(j) {
			continue
		}
		if best == noneSlot || net.precedes(nd, int32(j), s, best, bs) {
			best, bs = int32(j), s
		}
	}
	return best, bs.id // NoPath when best is noneSlot
}

// decideAfter is decide for the common case in which only row w of the
// Adj-RIB-In changed since ps's Loc-RIB was last decided. While w is not the
// best row, every other row still loses to the best one, so the new best is
// the old best or w: one comparison instead of a scan of the row. It falls
// back to the scan when the best route may have worsened (w was the best
// row), when the best is not a row (self-origin) and when dampening can
// suppress rows. The decision order is strict and total, so both ways pick
// the same route; TestDecideAfterMatchesScan pins it.
func (net *Network) decideAfter(nd *node, ps *prefixState, w int32) (slot int32, id PathID) {
	best := ps.bestSlot
	if best == w || best == selfSlot || ps.selfOrigin || ps.dampened {
		return net.decide(nd, ps)
	}
	rows := net.rib(nd, ps)
	if sw := rows[w]; sw.id != NoPath && (best == noneSlot || net.precedes(nd, w, sw, best, rows[best])) {
		return w, sw.id
	}
	return best, ps.bestID
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
