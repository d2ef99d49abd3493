package bgp

// Sharded deterministic execution (the windowed engine). With a positive
// Config.LinkDelay the network runs in barrier-synchronized windows of
// width W = LinkDelay: transmit appends wire messages to per-partition
// outboxes instead of admitting them inline, and each window first admits,
// per receiving partition, the messages emitted in the previous window in
// the canonical (arrival, sender, senderSeq) order and then runs that
// partition to the window end. The node array is cut into more partitions
// than there are cores (see partitions); a crew of worker goroutines, one per
// unit of the core budget the run can take (see runWindowed), claims them one
// by one, heaviest first, so a light partition's worker picks up the next one
// instead of idling at the barrier. Because every message
// takes exactly LinkDelay to propagate and windows never span more than W of
// fired events (NextWindow rounds up to a multiple of W), nothing fired
// inside a window can affect any partition before the following barrier,
// and the canonical admission order makes the merged per-node event order —
// hence RNG draws, tie-breaks, MRAI flush timing and all results —
// independent of both the partition and the worker count. The full
// correctness argument is in DESIGN.md, "Sharded DES".

import (
	"math"
	"runtime"
	"slices"
	"time"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// wireMsg is one update in flight between windows: the delivery payload
// (the path as its interned ID, as in inMsg) plus the canonical merge key
// (arrival, sender, seq). seq is the sender's per-node message counter, so
// the key is a total order (same sender ⇒ distinct seq; different senders ⇒
// distinct sender) that depends only on simulation state, never on the
// partition. 32 bytes, no pointer; TestKernelLayoutBudget pins both.
type wireMsg struct {
	arrival  des.Time
	sender   topology.NodeID
	seq      uint32
	to       topology.NodeID
	fromSlot int32
	prefix   Prefix
	pathID   PathID // NoPath for a withdrawal
}

// before is the canonical admission order.
func (m *wireMsg) before(o *wireMsg) bool {
	if m.arrival != o.arrival {
		return m.arrival < o.arrival
	}
	if m.sender != o.sender {
		return m.sender < o.sender
	}
	return m.seq < o.seq
}

// netShard is one partition of the network: a contiguous node range with a
// private event queue and counters. The inline engine runs
// exactly one; the windowed engine cuts the node array into partitions(…)
// of them, independently of how many workers execute the windows. During a
// window only the worker that claimed a shard touches its state (and the
// state of the nodes it owns); the window's join orders all cross-shard
// reads after the writes they observe.
type netShard struct {
	net *Network
	idx int
	// kinds counts the updates processed by this shard's nodes since the
	// last ResetCounters by kind (see kindWithdraw); their sum is the
	// shard's update count. publishedUpdates is that sum as of the network's
	// last publication (see Network.publish). (Eleven words precede sched:
	// the scheduler's 32-byte ring buckets start one word into it, and a
	// shard is page-aligned, so this keeps every bucket inside one cache
	// line. TestKernelLayoutBudget pins it.)
	kinds            [8]uint64
	publishedUpdates uint64

	sched des.Scheduler

	// rate[i] counts the updates this shard's nodes completed in virtual
	// second rateBase+i of the current measurement window; rateBase is the
	// second the window began in, the same on every shard. A histogram, so
	// the order updates are counted in does not matter (one completed at
	// admission is counted ahead of the clock) and PeakUpdateRate sums the
	// shards second by second. 32 bits hold any second's count: every update
	// consumed a scheduler sequence number. It spans the window's first
	// second to the latest one an update completed in — four bytes per
	// virtual second, whatever the update count (a day-long window: 345 kB a
	// shard) — and its capacity is retained across windows.
	rate     []uint32
	rateBase des.Time
	// horizon is the latest completion time among the updates deliver
	// completed at admission in the run in progress (zero: none): the event
	// that would have fired last, had they been events.
	horizon des.Time

	// tally is what this shard has counted for the metrics hub since the
	// network last published (see Network.publish).
	tally shardTally

	// emitted counts the wire messages this shard has appended to the
	// current outbox generation and firstArrival is the arrival time of the
	// first of them — the earliest, since a shard emits in fire order. The
	// coordinator folds both into the next window's bound and clears them
	// (see windowBound).
	emitted      int
	firstArrival des.Time
	// windowFired is the number of events the shard fired in the last
	// window: the coordinator's load estimate for the next one. cross is the
	// number of messages the last admission took from other shards.
	windowFired uint64
	cross       uint64
	// runs is admit's merge scratch: the heads of the inbound runs.
	runs [][]wireMsg

	// scratch is a reused buffer for sorted per-prefix iteration in MRAI
	// flush drains. Valid only within one event's Fire; never retained.
	scratch []Prefix

	// outq is the output queues of this shard's nodes, whose rows are
	// contiguous: a window of Network.outq. spills holds their spill records
	// by offset in outq (see queueSpill), allocated at the shard's first
	// spill, so a run that never meets a second prefix pays nothing for it.
	// No two shards share a record; windowed shards write theirs
	// concurrently. reinit keeps them.
	outq   []outQueue
	spills []*queueSpill
}

// shardTally is what a shard counts for the metrics hub between two
// publications, in plain fields: only the goroutine running the shard
// writes them, and the network reads them after the window workers have
// joined (see Network.publish).
type shardTally struct {
	announcements, withdrawals uint64 // updates transmitted, by kind
	flushes, prefixFlushes     uint64 // MRAI flush events, per interface and per prefix
	emptyFlushes               uint64 // flushes of either kind that sent nothing
	deferrals                  uint64 // deliveries parked in a receiver inbox
}

// Partition sizing. A window's work is not proportional to a range's session
// count, so however the node array is cut, some range is the window's
// straggler; with exactly one range per worker that skew is pure barrier
// stall. Cutting partsPerWorker ranges per worker and letting the workers
// claim them dynamically bounds the stall by one small partition instead.
// Finer is not free — outboxes are partitions², and every window pays a
// scheduler peek and an admission pass per partition — so the factor is a
// measured constant (HISTORY.md has the table), not an option. partMinNodes
// keeps small topologies from being cut into ranges too small to amortize
// that per-partition cost, and maxPartitions is what a partOf entry can
// name.
const (
	partsPerWorker = 8
	partMinNodes   = 64
	maxPartitions  = 256
)

// partitions returns the number of node ranges a windowed network of n nodes
// is cut into when at most the given number of workers run it (build passes
// GOMAXPROCS). A single worker has no barrier to stall at: one worker, one
// partition.
func partitions(workers, n int) int {
	if workers <= 1 {
		return 1
	}
	return max(1, min(partsPerWorker*workers, n/partMinNodes, maxPartitions))
}

// runWindowed is the barrier-synchronized executor. Each iteration is one
// window: bound the earliest pending event from below, fix the window end,
// and have the workers admit-then-run every partition to it — one release
// and one join per window. A negative deadline means run to quiescence.
// Returns the number of events fired.
//
// The crew is the caller plus one worker per unit the core budget grants
// while a core is idle, up to the partition count and GOMAXPROCS (a caller
// outside the budget holds no unit of its own). It never waits for a unit,
// and it gives back every unit it took when the run returns.
//
// Outboxes are double-buffered by window parity: a window reads the
// generation the previous one wrote and writes the other, so a worker may
// already be running partition B (appending to the current generation)
// while another still admits partition A's inbound messages (reading the
// previous one). The price is that the window end must be fixed before the
// admissions that determine the true earliest event; windowBound's lower
// bound keeps the schedule of non-empty windows — and with it every result
// and the final clock — exactly what admitting first would give (DESIGN.md
// has the argument).
func (net *Network) runWindowed(deadline des.Time) uint64 {
	// A crew of one is the caller alone: no goroutine, and a join that has
	// nothing to wait for.
	k := min(net.forceWorkers, len(net.shards))
	if k <= 0 {
		k = 1
		for k < min(len(net.shards), runtime.GOMAXPROCS(0)) && des.Cores.TryAcquire() {
			k++
		}
		defer func(took int) {
			for range took {
				des.Cores.Release()
			}
		}(k - 1)
	}
	crew := des.StartCrew(k, len(net.shards), net.windowTask)
	defer crew.Stop()
	m := net.obs
	net.busy = nil
	if m != nil {
		net.busy = make([]time.Duration, k)
	}
	var fired, windows, cross uint64
	w := net.cfg.LinkDelay
	for {
		tmin, inflight, ok := net.windowBound()
		if !ok || (deadline >= 0 && tmin > deadline && !inflight) {
			break
		}
		e := des.NextWindow(tmin, w)
		if deadline >= 0 && e > deadline {
			// Also the deadline break with messages still in flight: they
			// are admitted now — API calls between Runs may draw from the
			// same node streams — by a window that, ending at the deadline
			// below every pending event, fires nothing.
			e = deadline
		}
		// Flip the generations: what has been emitted so far is this
		// window's inbound.
		net.parity ^= 1
		net.windowEnd = e
		// Heaviest first, so the long partitions start early and the short
		// ones fill in behind them. The order moves little from window to
		// window: insertion sort.
		for i := 1; i < len(net.order); i++ {
			for j := i; j > 0 && net.shards[net.order[j]].windowFired > net.shards[net.order[j-1]].windowFired; j-- {
				net.order[j], net.order[j-1] = net.order[j-1], net.order[j]
			}
		}
		crew.Do()
		windows++
		for _, sh := range net.shards {
			fired += sh.windowFired
			cross += sh.cross
		}
		if m != nil {
			// The worker skew: how long the least loaded worker idled at
			// the barrier (zero on a single worker).
			m.Shards.WindowSkew.Observe((slices.Max(net.busy) - slices.Min(net.busy)).Seconds())
			clear(net.busy)
		}
	}
	if m != nil {
		m.Shards.Barriers.Add(windows)
		m.Shards.CrossUpdates.Add(cross)
	}
	if deadline >= 0 {
		// Advance every shard clock to the deadline. No shard has an event
		// at or before it (the bound said so), so this fires nothing.
		for _, sh := range net.shards {
			if sh.sched.Now() < deadline {
				sh.sched.RunUntil(deadline)
			}
		}
	}
	return fired
}

// windowBound returns a lower bound on the earliest event pending anywhere
// once the in-flight messages are admitted: the minimum over every
// scheduler's next event and every shard's first emitted arrival (an
// admitted message completes at or after its arrival). inflight reports
// whether any message awaits admission; ok is false when nothing is pending
// at all. It closes the current outbox generation's emission tallies.
func (net *Network) windowBound() (tmin des.Time, inflight, ok bool) {
	tmin = math.MaxInt64
	for _, sh := range net.shards {
		if at, has := sh.sched.PeekTime(); has {
			tmin, ok = min(tmin, at), true
		}
		if sh.emitted > 0 {
			tmin, inflight = min(tmin, sh.firstArrival), true
			sh.emitted = 0
		}
	}
	return tmin, inflight, ok || inflight
}

// windowTask is one unit of a window's work: admit the i-th heaviest
// partition's inbound messages, then run it to the window end.
func (net *Network) windowTask(worker, i int) {
	sh := net.shards[net.order[i]]
	var t0 time.Time
	if net.busy != nil {
		t0 = time.Now()
	}
	net.admit(sh)
	sh.windowFired = sh.sched.RunUntil(net.windowEnd)
	if net.busy != nil {
		net.busy[worker] += time.Since(t0)
	}
}

// admit delivers the messages addressed to dst that the previous window's
// outbox generation holds, in canonical (arrival, sender, seq) order.
// Admission draws the receiver's processing delay and reserves its
// completion ticket exactly like the inline path (see deliver), so the
// per-node event sequence is the one a single shard would produce.
//
// Each source's run for dst is already in key order — a shard fires in time
// order, arrival is fire time + LinkDelay, and one sender's seq increases —
// except where two senders of one shard fire at the same instant in the
// "wrong" ID order, or API calls between Runs originate at several nodes.
// So each run is checked (and only then sorted) and the runs are k-way
// merged straight into deliver. The slots of the previous generation that
// name dst are disjoint across concurrent admit calls, and nothing writes
// that generation during a window, so truncating them here is race-free.
func (net *Network) admit(dst *netShard) {
	p := len(net.shards)
	gen := net.outbox[net.parity^1]
	runs := dst.runs[:0]
	var cross uint64
	for src := 0; src < p; src++ {
		run := gen[src*p+dst.idx]
		if len(run) == 0 {
			continue
		}
		gen[src*p+dst.idx] = run[:0]
		if src != dst.idx {
			cross += uint64(len(run))
		}
		for i := 1; i < len(run); i++ {
			if run[i].before(&run[i-1]) {
				slices.SortFunc(run, cmpWire)
				break
			}
		}
		runs = append(runs, run)
	}
	dst.cross = cross
	// Merge through a binary min-heap of the runs, keyed by each run's head.
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftRuns(runs, i)
	}
	for len(runs) > 0 {
		m := &runs[0][0]
		net.deliver(&net.nodes[m.to], m.arrival, m.fromSlot, m.prefix, m.pathID)
		if runs[0] = runs[0][1:]; len(runs[0]) == 0 {
			last := len(runs) - 1
			runs[0], runs[last] = runs[last], nil
			runs = runs[:last]
		}
		siftRuns(runs, 0)
	}
	dst.runs = runs
}

// cmpWire orders wire messages by the canonical key.
func cmpWire(a, b wireMsg) int {
	switch {
	case a.before(&b):
		return -1
	case b.before(&a):
		return 1
	}
	return 0 // unreachable: (sender, seq) is unique
}

// siftRuns restores the heap order of runs (by head message) below i.
func siftRuns(runs [][]wireMsg, i int) {
	for {
		c := 2*i + 1
		if c >= len(runs) {
			return
		}
		if c+1 < len(runs) && runs[c+1][0].before(&runs[c][0]) {
			c++
		}
		if !runs[c][0].before(&runs[i][0]) {
			return
		}
		runs[i], runs[c] = runs[c], runs[i]
		i = c
	}
}

// tickRate counts one update completed at virtual time at, which is never
// before the measurement window began, in the shard's per-second histogram.
func (sh *netShard) tickRate(at des.Time) {
	i := int(at/des.Second - sh.rateBase)
	if n := len(sh.rate); i >= n {
		// One step however long the quiet gap; retained capacity holds the
		// previous window's counts.
		sh.rate = slices.Grow(sh.rate, i+1-n)[:i+1]
		clear(sh.rate[n:])
	}
	sh.rate[i]++
}

// updates returns the number of updates the shard's nodes processed since
// the last ResetCounters: its kind counts summed.
func (sh *netShard) updates() uint64 {
	var n uint64
	for _, c := range sh.kinds {
		n += c
	}
	return n
}

// resetRate starts a new measurement window at the shard's clock. Updates
// are processed only inside runs, and every run publishes them, so between
// runs the publication mark equals the count and restarts with it.
func (sh *netShard) resetRate() {
	sh.kinds, sh.publishedUpdates = [8]uint64{}, 0
	sh.rate, sh.rateBase = sh.rate[:0], sh.sched.Now()/des.Second
}
