package bgp

import (
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/topology"
)

// Network is a running BGP simulation over a fixed topology. Construct with
// New, originate or withdraw prefixes, then Run to quiescence. A Network is
// not safe for concurrent use; run one per goroutine. (A Network with
// Config.Shards > 1 uses multiple goroutines internally during Run, but its
// public API remains single-caller.)
type Network struct {
	topo *topology.Topology
	// adj is the topology's shared CSR adjacency; every node's neighbor
	// IDs, relations and reverse slots are rows of it (see node.row).
	// Immutable, shared across Networks over the same topology.
	adj   *topology.Adjacency
	cfg   Config
	nodes []node

	// shards partitions the node array into contiguous ranges, each with a
	// private event queue and runtime counters (see netShard). The inline
	// zero-LinkDelay engine always runs one shard; the windowed engine runs
	// partitions(workerLimit, n) of them in barrier-synchronized lockstep
	// on up to Config.Shards workers.
	shards []*netShard
	// forceParts, when positive, overrides the partition count (tests only:
	// the public Shards values reach few distinct counts).
	forceParts int
	// windowed selects the barrier-synchronized executor (LinkDelay > 0).
	windowed bool
	// partOf[i] is the index of the shard owning node i, so transmit can
	// route a message without touching the receiver's node.
	partOf []uint8
	// outbox[g][src*len(shards)+dst] accumulates the wire messages shard src
	// emits for shard dst (including dst == src: in windowed mode every
	// update crosses a barrier, so every partition count admits in identical
	// order). There are two generations: transmit appends to generation
	// parity while the window in progress admits from the other (see
	// runWindowed).
	outbox [2][][]wireMsg
	parity int
	// windowEnd and order are the window in progress: its end time and the
	// shard indices in the order the workers claim them. busy is each
	// worker's wall time in the window's tasks (nil unless shardProbes is
	// attached).
	windowEnd des.Time
	order     []int32
	busy      []time.Duration
	// limit is the latest virtual time the run in progress is certain to
	// reach: the far future inside Run, the deadline inside RunUntil and
	// Settle, zero — before every completion time — outside a run, and
	// whenever something must see updates in time order (completionLimit).
	// deliver completes a silent node's update on the spot when it is done by
	// then, because nothing can reach that node's state any sooner.
	limit des.Time

	// sess and outq are this network's per-session state in one contiguous
	// block each, parallel to adj.IDs; node i's rows start at nodes[i].row.
	// sess is the receive side (Adj-RIB-In entry, decision rank and
	// tie-break, receive counter; see session), outq the send side.
	sess []session
	outq []outQueue
	// salt seeds the decision tie-break hashes of the current Reset epoch.
	salt uint64

	// intern is the path intern table: every AS path the engine holds is an
	// entry of it. It survives Reset and Grow: the distinct paths of one
	// topology recur across events, and PathIDs handed out earlier stay
	// valid (see PathID). All shards share it (mutex writers, lock-free
	// readers; see intern.go).
	intern *internTable

	// recvScratch is the buffer PerNeighborCounts gathers into.
	recvScratch []uint32

	// ws holds WarmStart's scratch arrays, lazily sized to N() on first use
	// and reused across calls so repeated warm starts on the same network
	// (one per origin in an experiment) do not reallocate.
	ws warmScratch

	// updateHook, when set, observes every processed update (see
	// SetUpdateHook). The hook is not required to be thread-safe, so the
	// windowed executor runs its windows on one worker while it is attached.
	updateHook func(UpdateRecord)

	// causal is the attached causal tracer (nil when tracing is off; see
	// causal.go). Unlike updateHook it is shard-safe by construction —
	// every write it takes during a window is shard-disjoint — so it never
	// forces sequential execution.
	causal *causalTrace

	// obs is the attached metrics hub (nil when detached); build re-attaches
	// probe blocks from it after Grow recreates the shards.
	obs *obs.Metrics
	// shardProbes instruments the barrier coordinator (windowed mode only):
	// barriers executed, cross-shard updates exchanged, per-window skew.
	shardProbes *obs.ShardProbes
}

// New builds the per-node protocol state for the topology. The topology
// must be valid (see topology.Validate); New does not re-validate it.
func New(topo *topology.Topology, cfg Config) (*Network, error) {
	return newNetwork(topo, cfg, 0)
}

// newNetwork is New with the windowed executor's partition count forced to
// parts when positive (at most maxPartitions; ignored by the inline engine).
// The count never affects results; the seam exists so tests can prove that
// at counts the public Shards values do not reach.
func newNetwork(topo *topology.Topology, cfg Config, parts int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := &Network{cfg: cfg, forceParts: parts, intern: newInternTable()}
	if err := net.build(topo); err != nil {
		return nil, err
	}
	net.reinit(cfg.Seed)
	return net, nil
}

// build (re)creates the structural wiring for topo: the shard array, the
// node array and the flat per-session state blocks, with every node's
// per-neighbor state a row of a shared flat array (the topology's CSR block
// or this network's own session arrays). It is the structural half of construction,
// shared by New and Grow; runtime state is initialized separately by reinit.
// The intern table is not touched — interned paths are content-addressed and
// node IDs survive growth, so existing PathIDs stay valid (see PathID).
func (net *Network) build(topo *topology.Topology) error {
	adj := topo.CSR()
	if !adj.Symmetric() {
		return fmt.Errorf("bgp: topology has an asymmetric adjacency")
	}
	sessions := len(adj.IDs)
	net.topo = topo
	net.adj = adj
	net.nodes = make([]node, topo.N())
	net.sess = make([]session, sessions)
	for k, rel := range adj.Rels {
		net.sess[k].rank = uint32(rel) << rankRelShift
	}
	net.outq = make([]outQueue, sessions)

	// Shard partition: contiguous node ranges balanced by session count.
	// The inline zero-LinkDelay engine has no lookahead to parallelize
	// under, so it always runs the single-shard inline path.
	net.windowed = net.cfg.LinkDelay > 0
	s := 1
	if net.windowed {
		s = partitions(net.workerLimit(), topo.N())
		if net.forceParts > 0 {
			s = min(net.forceParts, maxPartitions)
		}
	}
	bounds := adj.ShardRanges(s)
	net.shards = make([]*netShard, s)
	net.order = make([]int32, s)
	for k := range net.shards {
		net.shards[k] = &netShard{net: net, idx: k}
		net.order[k] = int32(k)
	}
	net.partOf = nil
	if net.windowed {
		net.partOf = make([]uint8, topo.N())
		net.outbox = [2][][]wireMsg{make([][]wireMsg, s*s), make([][]wireMsg, s*s)}
	}

	shard := 0
	for i := range net.nodes {
		nd := &net.nodes[i]
		for int32(i) >= bounds[shard+1] {
			shard++
		}
		sh := net.shards[shard]
		if net.windowed {
			net.partOf[i] = uint8(shard)
		}
		lo, hi := adj.Row(topology.NodeID(i))
		nd.id = topology.NodeID(i)
		nd.typ = topo.Nodes[i].Type
		nd.sink = !slices.Contains(adj.Rels[lo:hi], topology.Customer)
		nd.sh = sh
		nd.row, nd.deg = lo, hi-lo
		nd.prefixes.first.bestSlot = noneSlot
		out := net.out(nd)
		for j := range out {
			out[j].nd, out[j].slot = nd, int32(j)
		}
	}
	// Re-attach probe blocks after Grow recreated the shards (no-op when no
	// hub is attached), and re-size the causal tracer if one is attached.
	net.attachObs()
	net.attachCausal()
	return nil
}

// Grow rewires the network onto a grown topology (see topology.Grow) and
// reinitializes it from seed, preserving the Config, the attached probes and
// the path intern table, whose entries remain valid because growth
// preserves node IDs. Grow and Reset share the same
// reinitialization path (reinit), so a grown network is observably identical
// to one freshly built with New(topo, cfg-with-seed): the grow-then-reset
// regression test pins that equivalence. The topology must contain at least
// as many nodes as the current one, with the existing prefix unchanged.
func (net *Network) Grow(topo *topology.Topology, seed uint64) error {
	old := net.topo
	if topo.N() < old.N() {
		return fmt.Errorf("bgp: Grow to %d nodes from %d — topologies only grow", topo.N(), old.N())
	}
	for i := range old.Nodes {
		if topo.Nodes[i].Type != old.Nodes[i].Type {
			return fmt.Errorf("bgp: Grow topology changes node %d's type (%v -> %v); not a grown version of the current one",
				i, old.Nodes[i].Type, topo.Nodes[i].Type)
		}
	}
	if err := net.build(topo); err != nil {
		return err
	}
	net.reinit(seed)
	return nil
}

// MustNew is New for known-valid inputs; it panics on error.
func MustNew(topo *topology.Topology, cfg Config) *Network {
	net, err := New(topo, cfg)
	if err != nil {
		panic(err)
	}
	return net
}

// SetObs attaches the metrics hub to this network: every shard's protocol
// engine and event scheduler gets its own probe block on a fresh metrics
// shard, and — in windowed mode — the barrier coordinator
// gets a ShardProbes block. Pass nil to detach. Call before the first event
// is scheduled — the kernel's occupancy gauges assume an empty queue at
// attach time. Probes never read the virtual clock, consume randomness or
// change event order, so instrumented runs are byte-identical to bare ones.
func (net *Network) SetObs(m *obs.Metrics) {
	net.obs = m
	net.attachObs()
}

// attachObs (re)resolves probe blocks from the stored hub for the current
// shard array; with no hub it detaches everything. Called by SetObs and by
// build (so Grow keeps instrumentation attached across the rebuild).
func (net *Network) attachObs() {
	m := net.obs
	if m == nil {
		for _, sh := range net.shards {
			sh.probes = nil
			sh.sched.SetProbes(nil)
		}
		net.shardProbes = nil
		net.intern.setProbes(nil, nil, nil)
		return
	}
	for _, sh := range net.shards {
		sh.probes = m.NewBGPProbes()
		sh.sched.SetProbes(m.NewDESProbes())
	}
	if net.windowed {
		net.shardProbes = m.NewShardProbes()
	}
	// The intern table is shared by all shards; its cells live on shard 0's
	// probe block (atomic cells tolerate the shared writers, which already
	// serialize on the table mutex).
	p := net.shards[0].probes
	net.intern.setProbes(p.InternedPaths, p.InternBytes, p.InternHits)
}

// Topology returns the underlying topology.
func (net *Network) Topology() *topology.Topology { return net.topo }

// Config returns the protocol configuration.
func (net *Network) Config() Config { return net.cfg }

// Now returns the current virtual time. In windowed mode all shard clocks
// agree whenever the network is quiescent (between Run/Settle calls).
func (net *Network) Now() des.Time { return net.shards[0].sched.Now() }

// Pending returns the number of queued simulation events (including
// messages awaiting admission at the next window); zero means the network is
// quiescent (converged).
func (net *Network) Pending() int {
	n := 0
	for _, sh := range net.shards {
		n += sh.sched.Len() + sh.emitted
	}
	return n
}

// Run advances the simulation until quiescence and returns the number of
// events fired (updates completed at admission fire none; see deliver).
func (net *Network) Run() uint64 { return net.RunUntil(-1) }

// RunUntil advances the simulation up to the given deadline (to quiescence
// if it is negative) and returns the number of events fired.
func (net *Network) RunUntil(deadline des.Time) uint64 {
	net.limit = net.completionLimit(deadline)
	var fired uint64
	if net.windowed {
		fired = net.runWindowed(deadline)
	} else {
		fired = net.shards[0].sched.RunUntil(deadline)
	}
	net.limit = 0
	// The clock of a quiescent network stands at its last completion, and
	// the last one may have been completed at admission rather than fired
	// (sh.horizon). A deadline run ends at its deadline, past every horizon.
	var last des.Time
	for _, sh := range net.shards {
		last, sh.horizon = max(last, sh.horizon), 0
	}
	if deadline < 0 && last > 0 {
		if net.windowed {
			// Where the window that fired it would have left every clock.
			last = des.NextWindow(last, net.cfg.LinkDelay)
		}
		for _, sh := range net.shards {
			if sh.sched.Now() < last {
				sh.sched.RunUntil(last) // nothing is pending: moves the clock only
			}
		}
	}
	return fired
}

// completionLimit returns Network.limit for a run to deadline (negative: to
// quiescence). Two things keep every update an event of its own: an update
// hook, whose contract is records in time order, and flap dampening, whose
// penalties decay with the clock a node is processed at.
func (net *Network) completionLimit(deadline des.Time) des.Time {
	switch {
	case net.updateHook != nil || net.cfg.Dampening.Enabled:
		return 0
	case deadline < 0:
		return math.MaxInt64
	}
	return deadline
}

// Settle advances virtual time by d, firing any events that fall inside the
// window. Experiments use it to let MRAI timers go idle between phases, so
// a C-event starts from a quiet network as it would in practice.
func (net *Network) Settle(d des.Time) uint64 {
	return net.RunUntil(net.Now() + d)
}

// Reset rewinds the network to a pristine state (no prefixes, idle timers,
// clock at zero, counters cleared) and reseeds every node's randomness
// stream from seed, exactly as if the network had been rebuilt with New
// using that seed — but reusing all allocated structures. Experiment sweeps
// use it to run many C-events on one Network with per-event determinism
// that is independent of scheduling order. Reset and New share one
// reinitialization path (reinit); only the structural wiring differs.
func (net *Network) Reset(seed uint64) { net.reinit(seed) }

// reinit is the single reinitialization path shared by New and Reset: it
// (re)seeds all randomness and rewinds every piece of runtime state —
// schedulers, counters, outboxes, per-node timers, queues and prefix
// tables — to the pristine post-New condition. New calls it on
// freshly zeroed structures, Reset on used ones; both end in the identical
// observable state for a given seed, which is what lets experiment sweeps
// (and the grow-then-reset regression test) treat "Reset(s)" and "rebuilt
// with New(s)" as interchangeable. The intern table is intentionally NOT
// cleared (see PathID).
func (net *Network) reinit(seed uint64) {
	for _, sh := range net.shards {
		sh.sched.Reset(true)
		sh.activeCause = 0
		sh.horizon = 0
		sh.resetRate()
		sh.emitted = 0
	}
	for _, gen := range net.outbox {
		for k, run := range gen {
			clear(run) // release in-flight paths
			gen[k] = run[:0]
		}
	}
	master := rng.New(seed)
	net.salt = master.Uint64() // first draw: the tie-break salt
	for i := range net.nodes {
		nd := &net.nodes[i]
		nd.busyUntil = 0
		nd.msgSeq = 0
		clear(nd.inbox) // release parked paths
		nd.inbox, nd.inboxHead, nd.delivering = nd.inbox[:0], 0, false
		nd.spoke = false
		nd.cur = inMsg{}
		nd.recvAnnounce, nd.recvWithdraw, nd.sentUpdates = 0, 0, 0
		nd.bestChanges, nd.suppressions = 0, 0
		// Rewind every prefixState (own rows and damp storage kept);
		// the next event's state() calls hand them out again. The flat
		// session row loses its routes and counts and gets the new epoch's
		// tie-breaks.
		nd.prefixes.recycle()
		rows := net.sessions(nd)
		for j, id := range net.nbrIDs(nd) {
			rows[j] = session{rank: rows[j].rank &^ rankLenMask, tie: uint32(hashID(net.salt, id) >> 32)}
		}
		// One draw per node, in node order.
		nd.src.Reseed(master.Uint64())
		out := net.out(nd)
		for j := range out {
			q := &out[j]
			q.down = false
			q.pending.Clear()
			q.lastSent.Clear()
			// Rewound, not dropped: repeated C-events on one Network reuse
			// the per-prefix timer storage instead of re-allocating it.
			q.clearTimers()
		}
	}
}

// Originate makes origin announce prefix f from the current virtual time.
// Call Run afterwards to propagate.
func (net *Network) Originate(origin topology.NodeID, f Prefix) {
	nd := &net.nodes[origin]
	ps := net.state(nd, f)
	if ps.selfOrigin {
		return
	}
	ps.selfOrigin = true
	nd.spoke = true
	net.applyDecision(nd, f, ps)
}

// WithdrawPrefix makes origin stop announcing prefix f ("DOWN" half of a
// C-event). Call Run afterwards to propagate.
func (net *Network) WithdrawPrefix(origin topology.NodeID, f Prefix) {
	nd := &net.nodes[origin]
	ps := net.state(nd, f)
	if !ps.selfOrigin {
		return
	}
	ps.selfOrigin = false
	net.applyDecision(nd, f, ps)
}

// HasRoute reports whether node id currently has a route to prefix f
// (including originating it).
func (net *Network) HasRoute(id topology.NodeID, f Prefix) bool {
	ps, ok := net.nodes[id].prefixes.Get(f)
	return ok && ps.bestSlot != noneSlot
}

// BestPath returns the full AS path node id would use toward prefix f:
// [id, ..., origin], or nil if it has no route. The returned slice is fresh.
func (net *Network) BestPath(id topology.NodeID, f Prefix) Path {
	ps, ok := net.nodes[id].prefixes.Get(f)
	if !ok || ps.bestSlot == noneSlot {
		return nil
	}
	if ps.bestSlot == selfSlot {
		return Path{id}
	}
	return net.bestPath(ps).Prepend(id)
}

// NextHop returns the neighbor node id routes through for prefix f, the
// node itself if it originates f, or topology.None if it has no route.
func (net *Network) NextHop(id topology.NodeID, f Prefix) topology.NodeID {
	nd := &net.nodes[id]
	ps, ok := nd.prefixes.Get(f)
	if !ok || ps.bestSlot == noneSlot {
		return topology.None
	}
	if ps.bestSlot == selfSlot {
		return id
	}
	return net.adj.IDs[nd.row+ps.bestSlot]
}

// --- events ----------------------------------------------------------------
//
// The engine allocates no event objects. Each of its three recurring event
// kinds is a long-lived object that some piece of state already guarantees
// is pending at most once, so the object itself is handed to the scheduler:
// a node is the completion of the update it is processing (delivering), an
// outQueue the expiry of its per-interface MRAI timer (scheduled), a
// prefixTimer the expiry of its per-prefix one. Ownership rules are in
// DESIGN.md (kernel memory model).

// path returns the update's AS path (nil for withdrawals).
func (m *inMsg) path() Path { return unsafe.Slice(m.pathPtr, m.pathLen) }

// setPath stores p as pointer + length; see inMsg.
func (m *inMsg) setPath(p Path) {
	m.pathPtr, m.pathLen = unsafe.SliceData(p), int32(len(p))
}

// Fire completes the processing of the update in nd.cur. The node is its own
// event (see deliver), so Fire first copies the payload out of cur and then
// reuses the node for the next parked delivery, if any, before processing
// the update.
func (nd *node) Fire(*des.Scheduler) {
	sh := nd.sh
	m := &nd.cur
	fromSlot, kind, prefix, path, pathID, cause := m.fromSlot, m.kind, m.prefix, m.path(), m.pathID, m.cause
	// Chain the next parked delivery under its reserved ticket (see
	// deliver). Completion times are monotone per receiver, so the ticket
	// can never be in the past.
	if int(nd.inboxHead) < len(nd.inbox) {
		*m = nd.inbox[nd.inboxHead]
		nd.inbox[nd.inboxHead] = inMsg{} // release the path
		nd.inboxHead++
		if int(nd.inboxHead) == len(nd.inbox) {
			nd.inbox, nd.inboxHead = nd.inbox[:0], 0
		}
		sh.sched.AtTicket(m.tk, nd)
	} else {
		nd.delivering = false
		m.pathPtr = nil // release the path
	}
	// The update's root cause becomes the shard's active cause: every update
	// this processing step transmits (or queues behind an MRAI timer)
	// inherits it.
	sh.activeCause = cause
	sh.net.process(nd, sh.sched.Now(), fromSlot, kind, prefix, path, pathID, cause)
}

// process is what a node does with one received update, completed at virtual
// time at: counters, Adj-RIB-In, decision, exports. It is the only such
// path; at is the clock when the update is nd's event (Fire) and a time
// still ahead of it when deliver completes the update at admission, so
// nothing here or below reads the clock for a silent node. It leaves the
// shard's active cause alone — Fire sets it; a completion at admission runs
// inside the sender's fan-out and transmits nothing.
func (net *Network) process(nd *node, at des.Time, fromSlot int32, kind UpdateKind, prefix Prefix, path Path, pathID PathID, cause CauseID) {
	sh := nd.sh
	row := &net.sess[nd.row+fromSlot]
	row.recv++
	sh.totalUpdates++
	sh.tickRate(at)
	if p := sh.probes; p != nil {
		p.UpdatesProcessed.Inc()
	}
	if net.updateHook != nil {
		net.updateHook(UpdateRecord{
			Time:   at,
			From:   net.adj.IDs[nd.row+fromSlot],
			To:     nd.id,
			Kind:   kind,
			Prefix: prefix,
			Path:   path,
			PathID: pathID,
			Cause:  cause,
		})
	}
	ps := net.state(nd, prefix)
	if kind == Withdraw {
		nd.recvWithdraw++
	} else {
		nd.recvAnnounce++
		if path.Contains(nd.id) {
			// Receiver-side loop detection; unreachable given sender-side
			// suppression, kept as defense in depth.
			path, pathID = nil, NoPath
		}
	}
	// The Adj-RIB-In write is an 8-byte store into the session row — for the
	// node's first prefix the very record whose receive counter was just
	// bumped — and the dampening "did the path change" test an ID compare.
	r := row
	if ps != &nd.prefixes.first {
		r = &ps.own[fromSlot]
	}
	had := r.id
	same, hadNone := had == pathID, had == NoPath
	r.install(pathID, len(path))
	if tr := net.causal; tr != nil {
		tr.record(sh, nd, fromSlot, kind, same, hadNone)
	}
	if d := &net.cfg.Dampening; d.Enabled && !hadNone {
		// RFC 2439 flap accounting: a withdrawal of a reachable route, or an
		// announcement replacing it with a different path.
		switch {
		case kind == Withdraw:
			net.recordFlap(nd, fromSlot, prefix, d.WithdrawPenalty)
		case !same:
			net.recordFlap(nd, fromSlot, prefix, d.UpdatePenalty)
		}
	}
	net.applyDecision(nd, prefix, ps)
}

// Fire is the expiry of q's per-interface MRAI timer: it sends every update
// queued on the interface and, having sent any, restarts the timer.
func (q *outQueue) Fire(*des.Scheduler) {
	nd := q.nd
	sh := nd.sh
	net := sh.net
	q.scheduled = false
	if p := sh.probes; p != nil {
		p.MRAIFlushes.Inc()
	}
	if q.down || q.pending.Len() == 0 {
		return
	}
	sh.scratch = q.pending.SortedKeysInto(sh.scratch)
	for _, f := range sh.scratch {
		pu, _ := q.pending.Get(f)
		q.pending.Delete(f)
		// Each drained update is attributed to the cause that queued (or
		// last replaced) it, not to whatever fired most recently.
		sh.activeCause = pu.cause
		net.send(nd, q, f, pu.kind, pu.path, pu.id)
	}
	q.expiry = net.nextExpiry(nd)
}

// Fire is the expiry of one (interface, prefix) MRAI timer under PerPrefix
// scope: it sends the update queued for that pair, if any.
func (t *prefixTimer) Fire(*des.Scheduler) {
	q := t.q
	nd := q.nd
	sh := nd.sh
	net := sh.net
	t.scheduled = false
	if p := sh.probes; p != nil {
		p.PrefixMRAIFlushes.Inc()
	}
	if q.down {
		return
	}
	pu, ok := q.pending.Get(t.prefix)
	if !ok {
		return
	}
	q.pending.Delete(t.prefix)
	sh.activeCause = pu.cause
	net.send(nd, q, t.prefix, pu.kind, pu.path, pu.id)
	t.expiry = net.nextExpiry(nd)
}

// --- core protocol flow --------------------------------------------------

// applyDecision re-runs the decision process for (nd, f); if the selected
// route changed it updates the Loc-RIB and reconciles every neighbor's
// output state. The "did the route change" test is a PathID compare: the
// hash-consing invariant (equal IDs ⟺ equal content) makes it exact.
func (net *Network) applyDecision(nd *node, f Prefix, ps *prefixState) {
	slot, id := net.decide(nd, ps)
	if slot == ps.bestSlot && id == ps.bestID {
		return
	}
	ps.bestSlot, ps.bestID = slot, id
	ps.fullValid = false // the cached advertisement body is stale
	nd.bestChanges++
	if tr := net.causal; tr != nil {
		tr.tallies[nd.sh.idx].exploration[nd.typ]++
	}
	// A silent node exports to nobody and has nothing on any wire: reconcile
	// would build (and intern) an advertisement body no one is ever sent and
	// walk every output queue to find it empty. The checker below still
	// verifies the postcondition reconcile would have established.
	if !nd.silent() {
		net.reconcile(nd, f, ps)
	}
	if net.cfg.Check {
		net.checkReconciled(nd, f, ps)
	}
}

// reconcile recomputes the desired advertisement toward every neighbor and
// feeds differences into the rate-limited output queues.
func (net *Network) reconcile(nd *node, f Prefix, ps *prefixState) {
	full, fromCustomerOrSelf := net.advertisement(nd, ps)
	out, rows, ids := net.out(nd), net.sessions(nd), net.nbrIDs(nd)
	for j := range out {
		q := &out[j]
		if q.down {
			continue
		}
		var want Path
		wantID := NoPath
		if exportable(ids[j], rows[j].rel(), full, fromCustomerOrSelf) {
			want, wantID = full, ps.fullID
		}
		net.setDesired(nd, q, f, want, wantID)
	}
}

// timerIdle reports whether an update for (q, f) may be sent immediately.
func (net *Network) timerIdle(nd *node, q *outQueue, f Prefix) bool {
	if net.cfg.MRAI == 0 {
		return true
	}
	now := nd.sh.sched.Now()
	if net.cfg.Scope == PerPrefix {
		t := q.prefixTimers[f]
		return t == nil || t.expiry <= now
	}
	return q.expiry <= now
}

// nextExpiry draws the jittered expiry of an MRAI timer of nd started now.
func (net *Network) nextExpiry(nd *node) des.Time {
	return nd.sh.sched.Now() + des.Time(nd.src.Jitter(int64(net.cfg.MRAI), net.cfg.JitterLo, net.cfg.JitterHi))
}

// restartTimer starts the MRAI timer for (q[, f]) after a send.
func (net *Network) restartTimer(nd *node, q *outQueue, f Prefix) {
	if net.cfg.MRAI == 0 {
		return
	}
	expiry := net.nextExpiry(nd)
	if net.cfg.Scope == PerPrefix {
		q.prefixTimer(f).expiry = expiry
	} else {
		q.expiry = expiry
	}
}

// ensureFlush schedules the flush event that will drain (q[, f]) when its
// MRAI timer expires: the queue itself, or the prefix's timer.
func (net *Network) ensureFlush(nd *node, q *outQueue, f Prefix) {
	sched := &nd.sh.sched
	if net.cfg.Scope == PerPrefix {
		t := q.prefixTimer(f)
		if !t.scheduled {
			t.scheduled = true
			sched.At(t.expiry, t)
		}
		return
	}
	if !q.scheduled {
		q.scheduled = true
		sched.At(q.expiry, q)
	}
}

// send transmits one update on q's session and records it in the
// Adj-RIB-Out.
func (net *Network) send(nd *node, q *outQueue, f Prefix, kind UpdateKind, path Path, pathID PathID) {
	nd.spoke = true
	net.transmit(nd, int(q.slot), f, kind, path, pathID)
	if kind == Withdraw {
		q.lastSent.Delete(f)
	} else {
		q.lastSent.Set(f, path)
	}
}

// setDesired reconciles the wire state toward the neighbor behind q for
// prefix f with the desired advertisement want (nil = withdrawn/none; wantID
// is its interned ID). It sends
// immediately when rate limiting allows, otherwise replaces the queued
// update.
func (net *Network) setDesired(nd *node, q *outQueue, f Prefix, want Path, wantID PathID) {
	last, onWire := q.lastSent.Get(f)
	kind := Announce
	if want == nil {
		// Any queued announcement is now invalid.
		q.pending.Delete(f)
		if !onWire {
			return
		}
		if !net.cfg.RateLimitWithdrawals {
			// NO-WRATE: explicit withdrawals bypass the MRAI timer entirely
			// and do not restart it.
			net.send(nd, q, f, Withdraw, nil, NoPath)
			return
		}
		kind = Withdraw
	} else if onWire && last.Equal(want) {
		// Wire state already matches; drop any queued update (it has been
		// invalidated by this newer state). Both paths are canonical, so
		// Equal's identity fast-path resolves this compare.
		q.pending.Delete(f)
		return
	}
	if net.timerIdle(nd, q, f) {
		net.send(nd, q, f, kind, want, wantID)
		net.restartTimer(nd, q, f)
		return
	}
	q.pending.Set(f, pendingUpdate{kind: kind, path: want, id: wantID, cause: nd.sh.activeCause})
	net.ensureFlush(nd, q, f)
}

// transmit sends one update to the neighbor at slot j. With zero LinkDelay
// (the inline engine) the update is admitted to the receiver's processor
// inline — identical op order, RNG draws and ticket reservations to the
// historical single-threaded engine. In windowed mode the update is
// appended to the sender shard's outbox for the receiver's shard, stamped
// with its arrival time (now + LinkDelay) and the sender's per-node sequence
// number; the next window admits it on the receiver's shard in canonical
// (arrival, sender, seq) order (see admit).
func (net *Network) transmit(nd *node, j int, f Prefix, kind UpdateKind, path Path, pathID PathID) {
	sh := nd.sh
	nd.sentUpdates++
	if p := sh.probes; p != nil {
		if kind == Withdraw {
			p.WithdrawalsSent.Inc()
		} else {
			p.AnnouncementsSent.Inc()
		}
	}
	k := int(nd.row) + j
	to, fromSlot := net.adj.IDs[k], net.adj.Reverse[k]
	if net.windowed {
		if nd.msgSeq == math.MaxUint32 {
			// wireMsg narrows seq to uint32; wrapping would corrupt the
			// admission order silently. Reset rewinds the counter.
			panic("bgp: per-node message counter exhausted; Reset the network")
		}
		nd.msgSeq++
		arrival := sh.sched.Now() + net.cfg.LinkDelay
		if sh.emitted == 0 {
			sh.firstArrival = arrival
		}
		sh.emitted++
		ob := &net.outbox[net.parity][sh.idx*len(net.shards)+int(net.partOf[to])]
		*ob = append(*ob, wireMsg{
			arrival:  arrival,
			pathPtr:  unsafe.SliceData(path),
			sender:   nd.id,
			seq:      uint32(nd.msgSeq),
			to:       to,
			fromSlot: fromSlot,
			pathLen:  int32(len(path)),
			prefix:   f,
			pathID:   pathID,
			cause:    sh.activeCause,
			kind:     kind,
		})
		return
	}
	net.deliver(&net.nodes[to], sh.sched.Now(), fromSlot, f, kind, path, pathID, sh.activeCause)
}

// deliver admits one arriving update to the receiver's FIFO queue + single
// processor: processing completes a uniform (0, MaxProcessingDelay] after
// the receiver becomes free (and never before the message arrives). Shared
// by the inline path (arrival = send time) and barrier admission (arrival =
// send time + LinkDelay).
//
// Only the receiver's next completion lives in the scheduler queue, and the
// event is the receiver itself with the message in node.cur; while it is
// pending, further messages park in the receiver's inbox with their tickets
// reserved here, in admission order. node.Fire re-schedules the front of
// the inbox, so deliveries chain one at a time — same fire times, same fire
// order, a fraction of the queued events, no event objects.
//
// Most updates need no event at all. The completion time is known here, and
// when the receiver is silent nothing it does with the update leaves it; when
// the run in progress is certain to pass that time (Network.limit), no API
// call can look at the receiver before then either; and when no earlier
// update of its own is still an event (delivering), doing it now keeps its
// FIFO order. Then the update is processed on the spot, stamped with its
// completion time — the shard's horizon remembers the latest such time for
// the clock a run ends at (see RunUntil). DESIGN.md, "Admission-time
// completion", has the argument.
func (net *Network) deliver(to *node, arrival des.Time, fromSlot int32, f Prefix, kind UpdateKind, path Path, pathID PathID, cause CauseID) {
	sh := to.sh
	start := to.busyUntil
	if start < arrival {
		start = arrival
	}
	done := start + des.Time(to.src.UniformDuration(int64(net.cfg.MaxProcessingDelay)))
	to.busyUntil = done
	// Reserved whether or not it is redeemed: a sequence number per update is
	// what bounds the 32-bit counters (see node).
	tk := sh.sched.Reserve(done)
	if to.silent() && !to.delivering && done <= net.limit {
		sh.horizon = max(sh.horizon, done)
		net.process(to, done, fromSlot, kind, f, path, pathID, cause)
		return
	}
	m := inMsg{tk: tk, fromSlot: fromSlot, kind: kind, prefix: f, pathID: pathID, cause: cause}
	m.setPath(path)
	if to.delivering {
		to.inbox = append(to.inbox, m)
		if p := sh.probes; p != nil {
			p.InboxDeferrals.Inc()
		}
		return
	}
	to.delivering = true
	to.cur = m
	sh.sched.AtTicket(m.tk, to)
}
