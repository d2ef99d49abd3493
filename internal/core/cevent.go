// Package core implements the paper's churn experiment framework (§4): the
// C-event procedure (withdraw a prefix at a stub origin, let the network
// converge, re-announce, converge again), update counting at every node,
// and the Eq.-1 factor decomposition U(X) = Σ_y m_y·q_y·e_y over neighbor
// business relations, together with sweep machinery over network sizes and
// growth scenarios.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/stats"
	"bgpchurn/internal/topology"
)

// thePrefix is the single destination prefix used by C-events.
const thePrefix bgp.Prefix = 1

// EventKind selects the routing event an experiment measures.
type EventKind uint8

const (
	// CEvent is the paper's event: the owner withdraws the prefix, the
	// network converges, and the owner re-announces it.
	CEvent EventKind = iota
	// LinkEvent is the future-work extension: the link between the origin
	// and its first provider fails and is later restored, while the prefix
	// stays announced. Multihomed origins keep partial reachability, so
	// the churn pattern differs from a C-event.
	LinkEvent
)

// String names the event kind.
func (k EventKind) String() string {
	if k == LinkEvent {
		return "L-event"
	}
	return "C-event"
}

// Config parameterizes a C-event experiment on one topology.
type Config struct {
	// Origins is the number of distinct C-node event originators (the
	// paper uses 100; it reports that more does not change the results).
	// Capped at the number of C nodes in the topology.
	Origins int
	// BGP is the protocol configuration (MRAI variant etc.). Its Seed is
	// combined with per-origin indices so every origin's run is
	// deterministic in isolation.
	BGP bgp.Config
	// Settle is the idle time inserted after initial propagation and
	// between the DOWN and UP phases so MRAI timers expire and each phase
	// starts from a quiet network. Defaults to 2×MRAI.
	Settle des.Time
	// Parallelism fixes the number of concurrent origin workers, each
	// simulating on its own Network. 0 runs one worker plus helpers that
	// join while the process-wide core budget has an idle core and leave
	// when it is over-subscribed, so concurrent cells share GOMAXPROCS
	// instead of multiplying it (DESIGN.md, "Core budget"). A windowed
	// Network's crew takes idle cores from the same budget, so with a
	// positive BGP.LinkDelay, 1 leaves the spare cores to the crews. Results
	// are independent of this value.
	Parallelism int
	// Kind selects the routing event (default: CEvent).
	Kind EventKind
	// WarmStart skips the DES initial-propagation flood and installs the
	// converged pre-event routing state directly (bgp.Network.WarmStart).
	// The measured DOWN/UP phases then run on per-node RNG streams that the
	// flood never advanced, so results are statistically equivalent to the
	// cold path but not byte-identical; the default (false) preserves exact
	// reproducibility of existing figures. Incompatible with flap dampening,
	// whose pre-event penalties only a real flood can accrue.
	WarmStart bool
	// Obs, when non-nil, attaches instrumentation to every worker network
	// (see internal/obs). Metrics never affect results, and are excluded
	// from the scheduler's cache key for the same reason Parallelism is.
	Obs *obs.Metrics
	// Spans, when non-nil, enables causal tracing: each origin's DOWN and
	// UP phases become root causes (bgp.Network.BeginCause), and per-origin
	// and per-event spans — with live Eq.-1 m·q·e attribution in their
	// Stats — are appended to the recorder. Tracing never changes results
	// (the determinism tier proves byte-identical output at every shard
	// count), so Spans is excluded from the cache key like Obs.
	Spans *obs.SpanRecorder
	// CellTimeout, when positive, bounds the wall-clock time of each grid
	// cell run through the scheduler. A cell exceeding it fails with a
	// CellTimeoutError — a transient fault that is retried, then
	// quarantined. Like Parallelism it cannot change what a result is, only
	// whether it arrives, so it is excluded from the scheduler's cache key.
	// Ignored by direct RunCEvents calls (no deadline).
	CellTimeout time.Duration
}

// DefaultConfig returns the paper's experiment setup (100 origins,
// NO-WRATE) for the given seed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Origins: 100,
		BGP:     bgp.DefaultConfig(seed),
	}
}

// RelationFactors is the Eq.-1 decomposition of the updates a node type
// receives from one class of neighbors (customers, peers or providers):
// U_y(X) = m_y(X) · q_y(X) · e_y(X). Each factor is a ratio of sums over the
// type's nodes and the origins (bgp.TypeAttribution.MQE, the arithmetic of
// every event span), so M·Q·E = U up to rounding.
type RelationFactors struct {
	// U is the mean number of updates received from neighbors of this
	// relation per node per C-event.
	U float64
	// M is the mean number of neighbors of this relation (a topology
	// property; independent of the event).
	M float64
	// Q is the fraction of those neighbor sessions that sent at least one
	// update during the event (both phases): active sessions over all
	// sessions, both summed over nodes and origins.
	Q float64
	// E is the number of updates per active session: updates over active
	// sessions, both summed over nodes and origins.
	E float64
}

// TypeResult aggregates a C-event experiment over all nodes of one type.
type TypeResult struct {
	// Nodes is the number of nodes of this type in the topology.
	Nodes int
	// U is the mean number of updates received per node per C-event
	// (averaged over origins and nodes, as in the paper).
	U float64
	// CI95 is the 95% confidence half-width of U over origins.
	CI95 float64
	// ByRel indexes RelationFactors by topology.Relation (Customer, Peer,
	// Provider).
	ByRel [3]RelationFactors
}

// Result is the outcome of a C-event experiment on one topology.
type Result struct {
	// N is the topology size.
	N int
	// Origins is the number of C-events actually run.
	Origins int
	// ByType indexes TypeResult by topology.NodeType.
	ByType [4]TypeResult
	// TotalUpdates is the mean network-wide number of updates per C-event.
	TotalUpdates float64
	// DownSeconds and UpSeconds are the mean convergence times of the two
	// phases in virtual seconds.
	DownSeconds, UpSeconds float64
	// PathExploration[t] is the mean number of best-route changes per node
	// of type t per event — the path-exploration depth. The related work
	// the paper cites (Oliveira et al.) found exploration is less severe
	// in the core; this metric lets the claim be checked here.
	PathExploration [4]float64
	// PeakRate is the mean (over origins) of the busiest virtual second:
	// network-wide updates processed per second, a burstiness measure.
	PeakRate float64
	// Spread[t] summarizes the distribution of per-node update counts
	// within type t (each node's count first averaged over origins). The
	// paper points out the heavy-tailed degree distribution makes this
	// variation significant even when confidence intervals over origins
	// are tight.
	Spread [4]stats.Summary
}

// U returns the mean updates per C-event for a node type, the paper's main
// metric.
func (r *Result) U(t topology.NodeType) float64 { return r.ByType[t].U }

// originAccum collects one origin's contribution to the aggregate.
type originAccum struct {
	// attr is the origin's Eq.-1 cells over its whole window (both phases):
	// integer counts, whose sums over origins are exact in any order.
	attr                        [4]bgp.TypeAttribution
	total, downSec, upSec, peak float64
}

// RunCEvents measures churn per C-event on one topology. Each of cfg.Origins
// C nodes in turn withdraws and re-announces the prefix on a fresh network
// state; update counts are collected at every node and averaged per type.
// With cfg.Kind == LinkEvent the same procedure fails and restores the
// origin's primary transit link instead.
func RunCEvents(topo *topology.Topology, cfg Config) (*Result, error) {
	return RunCEventsContext(context.Background(), topo, cfg)
}

// RunCEventsContext is RunCEvents under a context: cancellation (or a
// deadline) stops the experiment at the next origin boundary — origins
// already simulated finish normally, no new ones start — and returns
// ctx.Err(). A cancelled experiment never returns a partial Result.
func RunCEventsContext(ctx context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.BGP.Validate(); err != nil {
		return nil, err
	}
	if cfg.Origins <= 0 {
		return nil, fmt.Errorf("core: Origins must be positive")
	}
	if cfg.WarmStart && cfg.BGP.Dampening.Enabled {
		return nil, fmt.Errorf("core: WarmStart is incompatible with flap dampening (pre-event flap penalties require the real propagation flood)")
	}
	origins, err := chooseOrigins(topo, cfg)
	if err != nil {
		return nil, err
	}
	settle := cfg.Settle
	if settle == 0 {
		settle = 2 * cfg.BGP.MRAI
	}

	// Order-free aggregation (DESIGN.md): each origin's scalars land in its
	// own slot of accs and aggregate folds them in origin-index order after
	// the run, so the floating-point additions are one fixed sequence however
	// the workers finish. Per-node update counts are integers, exact in any
	// order: each worker sums its origins' counts into a vector of its own and
	// merges it into perNode once, when it leaves. No worker waits on another.
	accs := make([]originAccum, len(origins))
	errs := make([]error, len(origins))
	perNode := make([]float64, topo.N()) // update counts summed over origins
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex   // guards perNode and fault
		claimed atomic.Int64 // origin indices handed out, ascending
		fault   any          // the first panic recovered on a spawned worker
	)
	// claim hands out the next origin index. It refuses once the context is
	// cancelled, so the claimed indices are always a prefix of the origin
	// list and every one of them is run.
	claim := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		i := int(claimed.Add(1)) - 1
		return i, i < len(origins)
	}
	// work runs origins on its own Network until none is left to claim (or,
	// for a helper, until the budget is over-subscribed).
	var work func(helper bool)
	// spawn starts one more worker holding a budget unit the caller took. A
	// panic there leaves the others no origin to claim and is kept for worker
	// 0 to re-raise after the join, where the scheduler recovers it as a
	// cell fault.
	spawn := func(helper bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer des.Cores.Release()
			defer func() {
				if r := recover(); r != nil {
					claimed.Store(int64(len(origins)))
					mu.Lock()
					if fault == nil {
						fault = r
					}
					mu.Unlock()
				}
			}()
			work(helper)
		}()
	}
	work = func(helper bool) {
		net := bgp.MustNew(topo, cfg.BGP)
		if cfg.Obs != nil {
			net.SetObs(cfg.Obs)
		}
		var counts []float64 // this worker's per-node update counts
		defer func() {
			mu.Lock()
			for id, v := range counts {
				perNode[id] += v
			}
			mu.Unlock()
		}()
		for {
			// Origin boundary: with Parallelism 0 a helper leaves when the
			// core budget is over-subscribed, and any worker recruits a
			// helper while a core is idle and it would have an origin to run.
			if cfg.Parallelism <= 0 {
				if helper && des.Cores.Over() {
					return
				}
				if len(origins)-int(claimed.Load()) >= 2 && des.Cores.TryAcquire() {
					spawn(true)
				}
			}
			idx, ok := claim()
			if !ok {
				return
			}
			if counts == nil {
				counts = make([]float64, topo.N())
			}
			errs[idx] = runOneOrigin(net, topo, origins[idx], cfg.BGP.Seed+uint64(idx)*0x9e3779b97f4a7c15, settle, cfg, &accs[idx], counts)
		}
	}

	// The calling goroutine is origin worker 0 and holds one budget unit for
	// the whole experiment; a fixed Parallelism starts the rest up front.
	des.Cores.Acquire()
	defer des.Cores.Release()
	defer func() {
		// On a panic in worker 0 or re-raised from a spawned worker
		// (recovered by the scheduler as a cell fault), leave the others no
		// origin to claim, so no worker or budget unit outlives the call.
		claimed.Store(int64(len(origins)))
		wg.Wait()
	}()
	for w := 1; w < min(cfg.Parallelism, len(origins)); w++ {
		des.Cores.Acquire()
		spawn(false)
	}
	work(false)
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
	if int(claimed.Load()) < len(origins) {
		return nil, ctx.Err()
	}
	// Report the first failure by origin index, so the error is independent
	// of worker scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return aggregate(topo, accs, perNode), nil
}

// chooseOrigins selects the event originators for one experiment: a
// deterministic sample of C nodes, preferring multihomed ones for link
// events.
func chooseOrigins(topo *topology.Topology, cfg Config) ([]topology.NodeID, error) {
	cNodes := topo.NodesOfType(topology.C)
	if len(cNodes) == 0 {
		return nil, fmt.Errorf("core: topology has no C nodes to originate C-events")
	}
	origins := pickOrigins(cNodes, cfg.Origins, cfg.BGP.Seed)
	if cfg.Kind == LinkEvent {
		// A link failure at a single-homed stub is indistinguishable from a
		// C-event; prefer multihomed origins so the event exercises partial
		// reachability, falling back to the plain sample if there are too
		// few of them.
		multi := make([]topology.NodeID, 0, len(cNodes))
		for _, id := range cNodes {
			if len(topo.Nodes[id].Providers) >= 2 {
				multi = append(multi, id)
			}
		}
		if len(multi) >= cfg.Origins || len(multi) >= len(origins) {
			origins = pickOrigins(multi, cfg.Origins, cfg.BGP.Seed)
		}
	}
	return origins, nil
}

// pickOrigins deterministically samples k distinct C nodes.
func pickOrigins(cNodes []topology.NodeID, k int, seed uint64) []topology.NodeID {
	if k > len(cNodes) {
		k = len(cNodes)
	}
	ids := append([]topology.NodeID(nil), cNodes...)
	r := rng.New(seed ^ 0xc5f1e7a3b2d4968f)
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:k]
}

// runOneOrigin performs the full event procedure for one originator, fills
// acc with its per-node-type statistics and adds each node's update count to
// perNode.
func runOneOrigin(net *bgp.Network, topo *topology.Topology, origin topology.NodeID, seed uint64, settle des.Time, cfg Config, acc *originAccum, perNode []float64) error {
	spans := cfg.Spans
	var originWall float64
	if spans != nil {
		originWall = spans.Now()
	}
	net.Reset(seed)

	// Initial propagation: the prefix exists and the network is converged
	// and quiet before the event, as in the paper's setup. The warm path
	// installs that state directly; the cold path floods it through the DES
	// and discards the flood's churn (ResetCounters). Either way counters
	// are zero and MRAI timers idle when the event fires.
	if cfg.WarmStart {
		net.WarmStart(origin, thePrefix)
	} else {
		net.Originate(origin, thePrefix)
		net.Run()
		net.Settle(settle)
		net.ResetCounters()
	}

	down := func() error { net.WithdrawPrefix(origin, thePrefix); return nil }
	up := func() error { net.Originate(origin, thePrefix); return nil }
	downCause, upCause := bgp.CauseWithdraw, bgp.CauseAnnounce
	if cfg.Kind == LinkEvent {
		if len(topo.Nodes[origin].Providers) == 0 {
			return fmt.Errorf("core: link-event origin %d has no provider link to fail", origin)
		}
		provider := topo.Nodes[origin].Providers[0]
		down = func() error { return net.FailLink(origin, provider) }
		up = func() error { return net.RestoreLink(origin, provider) }
		downCause, upCause = bgp.CauseLinkFail, bgp.CauseLinkRestore
	}

	// DOWN: the owner withdraws the prefix (or its primary link fails).
	var eventWall float64
	if spans != nil {
		eventWall = spans.Now()
		net.BeginCause(downCause, origin)
	}
	start := net.Now()
	if err := down(); err != nil {
		return err
	}
	net.Run()
	acc.downSec = (net.Now() - start).Seconds()
	if spans != nil {
		emitEventSpan(spans, net.EndCause(), eventWall, topo.N())
	}

	net.Settle(settle)

	// UP: the owner re-announces (or the link is restored).
	if spans != nil {
		eventWall = spans.Now()
		net.BeginCause(upCause, origin)
	}
	start = net.Now()
	if err := up(); err != nil {
		return err
	}
	net.Run()
	acc.upSec = (net.Now() - start).Seconds()
	if spans != nil {
		emitEventSpan(spans, net.EndCause(), eventWall, topo.N())
	}

	acc.total = float64(net.TotalUpdates())
	acc.peak = float64(net.PeakUpdateRate())
	collect(net, acc, perNode)
	if spans != nil {
		spans.Append(obs.SpanRecord{
			Level:    obs.SpanOrigin,
			Name:     fmt.Sprintf("origin %d", origin),
			StartUS:  originWall,
			DurUS:    spans.Now() - originWall,
			VStartUS: 0,
			VEndUS:   net.Now().Microseconds(),
			N:        topo.N(),
			Origin:   int64(origin),
			Stats: map[string]float64{
				"total_updates": acc.total,
				"peak_rate":     acc.peak,
				"down_s":        acc.downSec,
				"up_s":          acc.upSec,
			},
		})
	}
	return nil
}

// emitEventSpan converts one closed root cause into an event span carrying
// the live Eq.-1 attribution in its Stats.
func emitEventSpan(spans *obs.SpanRecorder, attr bgp.EventAttribution, wallStart float64, n int) {
	spans.Append(obs.SpanRecord{
		Level:    obs.SpanEvent,
		Name:     attr.Kind.String(),
		StartUS:  wallStart,
		DurUS:    spans.Now() - wallStart,
		VStartUS: attr.Start.Microseconds(),
		VEndUS:   attr.End.Microseconds(),
		N:        n,
		Origin:   int64(attr.Origin),
		Cause:    uint64(attr.Cause),
		Stats:    attr.Stats(),
	})
}

// collect takes one origin's Eq.-1 cells from the network, and adds each
// node's update count to perNode.
func collect(net *bgp.Network, acc *originAccum, perNode []float64) {
	acc.attr = net.Attribution()
	for id := range perNode {
		var sum uint64
		for _, c := range net.PerNeighborCounts(topology.NodeID(id)) {
			sum += uint64(c)
		}
		perNode[id] += float64(sum)
	}
}

// aggregate folds the origins' accumulators into a Result. The Eq.-1 cells
// are integers, summed over origins and divided once (TypeAttribution.MQE),
// so U = M·Q·E per type and relation. The floating-point per-origin means
// (U for its confidence interval, exploration, totals, convergence times,
// peak rate) are added in origin-index order: that addition is not
// associative, so the order is what keeps results byte-identical at any
// worker count. perNode holds each node's update count summed over all
// origins. Call only after every origin ran successfully.
func aggregate(topo *topology.Topology, accs []originAccum, perNode []float64) *Result {
	k := float64(len(accs))
	res := &Result{N: topo.N(), Origins: len(accs)}
	var cells [4]bgp.TypeAttribution
	var perOriginU [4][]float64 // per-type U by origin, for stats.MeanCI
	for t := range perOriginU {
		perOriginU[t] = make([]float64, len(accs))
	}
	for i := range accs {
		a := &accs[i]
		for t := range cells {
			ta := &a.attr[t]
			perOriginU[t][i] = ta.U()
			if ta.Nodes > 0 {
				res.PathExploration[t] += float64(ta.Exploration) / float64(ta.Nodes)
			}
			addCells(&cells[t], ta)
		}
		res.TotalUpdates += a.total
		res.DownSeconds += a.downSec
		res.UpSeconds += a.upSec
		res.PeakRate += a.peak
	}
	counts := topo.CountByType()
	for t := range cells {
		tr := &res.ByType[t]
		tr.Nodes = counts[t]
		tr.U, tr.CI95 = stats.MeanCI(perOriginU[t], 0.95)
		for rel := range tr.ByRel {
			rf := &tr.ByRel[rel]
			rf.M, rf.Q, rf.E = cells[t].MQE(topology.Relation(rel))
			if cells[t].Nodes > 0 {
				rf.U = float64(cells[t].ByRel[rel].Updates) / float64(cells[t].Nodes)
			}
		}
		res.PathExploration[t] /= k
	}
	res.TotalUpdates /= k
	res.DownSeconds /= k
	res.UpSeconds /= k
	res.PeakRate /= k

	// Per-node means over origins, then the within-type distribution.
	var byType [4][]float64
	for id := range perNode {
		perNode[id] /= k
		typ := topo.Nodes[id].Type
		byType[typ] = append(byType[typ], perNode[id])
	}
	for t := 0; t < 4; t++ {
		res.Spread[t] = stats.Summarize(byType[t])
	}
	return res
}

// addCells adds the integer cells of a to s.
func addCells(s, a *bgp.TypeAttribution) {
	s.Nodes += a.Nodes
	s.Exploration += a.Exploration
	for rel := range s.ByRel {
		s.ByRel[rel].Updates += a.ByRel[rel].Updates
		s.ByRel[rel].Active += a.ByRel[rel].Active
		s.ByRel[rel].Sessions += a.ByRel[rel].Sessions
	}
}
