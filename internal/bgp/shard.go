package bgp

// Sharded deterministic execution (the windowed engine). With a positive
// Config.LinkDelay the network runs in barrier-synchronized windows of
// width W = LinkDelay: transmit appends wire messages to per-shard
// outboxes instead of admitting them inline, and every barrier admits the
// accumulated messages in the canonical (arrival, sender, senderSeq) order
// before the shards run — in parallel when Config.Shards > 1 — to the next
// window end. Because every message takes exactly LinkDelay to propagate
// and windows never span more than W of fired events (NextWindow rounds
// the earliest pending event up to a multiple of W), nothing fired inside
// a window can affect another shard before the following barrier, and the
// canonical admission order makes the merged per-node event order — hence
// RNG draws, tie-breaks, MRAI flush timing and all results — independent
// of the shard count. The full correctness argument is in DESIGN.md,
// "Sharded DES".

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/topology"
)

// wireMsg is one update in flight between windows: the full delivery
// payload plus the canonical merge key (arrival, sender, seq). seq is the
// sender's per-node message counter, so the key is a total order (same
// sender ⇒ distinct seq; different senders ⇒ distinct sender) that depends
// only on simulation state, never on the partition.
type wireMsg struct {
	arrival  des.Time
	sender   topology.NodeID
	seq      uint64
	to       topology.NodeID
	fromSlot int32
	kind     UpdateKind
	prefix   Prefix
	path     Path
	pathID   PathID
	// cause is the update's root cause (0 when tracing is off); it rides
	// the barrier merge untouched — admission order never looks at it.
	cause CauseID
}

// rateSec is one second of a shard's update-rate log (see tickRate).
type rateSec struct {
	sec   des.Time
	count uint64
}

// netShard is one barrier-synchronized partition of the network: a
// contiguous node range with a private event queue, path arena and
// counters. The inline engine runs exactly one; the windowed
// engine runs Config.Shards of them. During a window only the owning
// goroutine touches a shard's state (and the state of the nodes it owns);
// between windows the barrier's WaitGroup edges order all cross-shard
// reads after the writes they observe.
type netShard struct {
	net *Network
	idx int
	// lo/hi is the owned node range [lo, hi) in CSR index order.
	lo, hi int32

	sched des.Scheduler

	// activeCause is the root cause of whatever this shard is currently
	// firing: procEvent.Fire sets it from the event, the flush events set
	// it per drained pendingUpdate, and BeginCause stamps it at event
	// start so API-triggered sends inherit the root. Only the owning
	// goroutine touches it during a window.
	activeCause CauseID

	// paths bump-allocates every path the shard's nodes create
	// (advertisement bodies, warm-start routes); Reset drops its slab, see
	// pathArena.
	paths pathArena

	// totalUpdates counts updates processed by this shard's nodes since the
	// last ResetCounters.
	totalUpdates uint64
	// rateBucket/rateCount/ratePeak track the busiest virtual second inline
	// — constant space — on single-shard networks, where the shard's peak
	// is the network's peak.
	rateBucket des.Time
	rateCount  uint64
	ratePeak   uint64
	// rateLog records (second, count) pairs, nondecreasing in time, on
	// multi-shard networks; PeakUpdateRate merges the shard logs and takes
	// the max of the per-second sums, which no running per-shard max could
	// reconstruct. Capacity is retained across ResetCounters.
	rateLog []rateSec

	// probes is this shard's protocol probe block; nil when obs is
	// detached.
	probes *obs.BGPProbes

	// outbox[d] accumulates the window's wire messages addressed to shard
	// d (including d == idx: in windowed mode every update crosses a
	// barrier, so single- and multi-shard runs admit in identical order).
	outbox [][]wireMsg
	// inbox is admitDest's merge scratch; cross is its cross-shard message
	// count for the exchange probe.
	inbox []wireMsg
	cross uint64

	// scratch is a reused buffer for sorted per-prefix iteration in MRAI
	// flush drains. Valid only within one event's Fire; never retained.
	scratch []Prefix
}

// runWindowed is the barrier-synchronized executor: admit pending wire
// messages, find the earliest pending event across shards, run every shard
// to the next window boundary, repeat. A negative deadline means run to
// quiescence. Returns the number of events fired.
func (net *Network) runWindowed(deadline des.Time) uint64 {
	var fired uint64
	w := net.cfg.LinkDelay
	// The updateHook is not required to be thread-safe; with one attached
	// the windows execute their shards sequentially (the admission order —
	// and therefore every result — is unchanged; only wall-clock and the
	// interleaving of trace records across shards differ).
	parallel := net.multi && net.updateHook == nil && fanoutOK()
	for {
		net.exchange()
		tmin, ok := des.GroupPeek(net.scheds)
		if !ok {
			break
		}
		if deadline >= 0 && tmin > deadline {
			break
		}
		e := des.NextWindow(tmin, w)
		if deadline >= 0 && e > deadline {
			e = deadline
		}
		if p := net.shardProbes; p != nil {
			p.Barriers.Inc()
			fired += des.RunGroupUntil(net.scheds, e, parallel, net.firedScratch, net.elapsedScratch)
			p.ObserveSkew(skew(net.elapsedScratch))
		} else {
			fired += des.RunGroupUntil(net.scheds, e, parallel, net.firedScratch, nil)
		}
	}
	if deadline >= 0 {
		// Advance every shard clock to the deadline. No shard has an event
		// at or before it (GroupPeek said so), so this fires nothing.
		for _, s := range net.scheds {
			if s.Now() < deadline {
				s.RunUntil(deadline)
			}
		}
	}
	return fired
}

// skew is the max-min spread of the window's per-shard wall times.
func skew(elapsed []time.Duration) time.Duration {
	lo, hi := elapsed[0], elapsed[0]
	for _, d := range elapsed[1:] {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return hi - lo
}

// exchange drains every shard's outboxes and admits the messages on their
// destination shards in canonical (arrival, sender, seq) order —
// per-destination, in parallel, since admissions touch only receiver-shard
// state. Admission draws the receiver's processing delay and reserves its
// completion ticket exactly like the classic inline path (see deliver), so
// the per-node event sequence is the same one a single shard would
// produce.
func (net *Network) exchange() {
	pending := false
	for _, sh := range net.shards {
		for _, ob := range sh.outbox {
			if len(ob) > 0 {
				pending = true
				break
			}
		}
		if pending {
			break
		}
	}
	if !pending {
		return
	}
	if net.multi && fanoutOK() {
		var wg sync.WaitGroup
		wg.Add(len(net.shards) - 1)
		for _, dst := range net.shards[1:] {
			go func(dst *netShard) {
				defer wg.Done()
				net.admitDest(dst)
			}(dst)
		}
		net.admitDest(net.shards[0])
		wg.Wait()
	} else {
		for _, dst := range net.shards {
			net.admitDest(dst)
		}
	}
	if p := net.shardProbes; p != nil {
		var cross uint64
		for _, sh := range net.shards {
			cross += sh.cross
		}
		p.CrossUpdates.Add(cross)
	}
}

// fanoutOK reports whether spawning per-shard goroutines can pay off: with
// a single schedulable CPU the fan-out is pure scheduling overhead, so the
// windows run their shards on the caller instead (admission order, and
// therefore every result, is identical either way — only wall-clock
// differs). Race-instrumented builds always fan out so the race tier
// exercises the concurrent paths even on one core.
func fanoutOK() bool { return raceEnabled || runtime.GOMAXPROCS(0) > 1 }

// admitDest gathers the messages addressed to dst from every source
// outbox, sorts them by the canonical key and admits them in that order.
// Source outbox slots for dst are disjoint across concurrent admitDest
// calls, so truncating them here is race-free.
func (net *Network) admitDest(dst *netShard) {
	buf := dst.inbox[:0]
	var cross uint64
	for _, src := range net.shards {
		msgs := src.outbox[dst.idx]
		if len(msgs) == 0 {
			continue
		}
		if src != dst {
			cross += uint64(len(msgs))
		}
		buf = append(buf, msgs...)
		clear(msgs) // release path references held by the outbox
		src.outbox[dst.idx] = msgs[:0]
	}
	dst.cross = cross
	slices.SortFunc(buf, func(a, b wireMsg) int {
		switch {
		case a.arrival != b.arrival:
			if a.arrival < b.arrival {
				return -1
			}
			return 1
		case a.sender != b.sender:
			if a.sender < b.sender {
				return -1
			}
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		default:
			return 0 // unreachable: (sender, seq) is unique
		}
	})
	for i := range buf {
		m := &buf[i]
		net.deliver(&net.nodes[m.to], m.arrival, m.fromSlot, m.prefix, m.kind, m.path, m.pathID, m.cause)
		buf[i] = wireMsg{} // release the path
	}
	dst.inbox = buf[:0]
}

// tickRate advances the shard's updates-per-second accounting by one
// processed update (see the field comments on netShard for the two
// representations).
func (sh *netShard) tickRate() {
	bucket := sh.sched.Now() / des.Second
	if !sh.net.multi {
		if bucket != sh.rateBucket {
			sh.rateBucket, sh.rateCount = bucket, 0
		}
		sh.rateCount++
		if sh.rateCount > sh.ratePeak {
			sh.ratePeak = sh.rateCount
		}
		return
	}
	if n := len(sh.rateLog); n > 0 && sh.rateLog[n-1].sec == bucket {
		sh.rateLog[n-1].count++
		return
	}
	sh.rateLog = append(sh.rateLog, rateSec{sec: bucket, count: 1})
}
