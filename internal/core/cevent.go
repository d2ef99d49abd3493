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
	"runtime"
	"sync"
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
	// Parallelism bounds the number of concurrent simulations
	// (0 = GOMAXPROCS). Results are independent of this value.
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
	// Trace, when non-nil, records every processed update into the bounded
	// ring (time, from, to, prefix, kind, cause, interned path identity).
	// Meant for debugging sessions, not steady-state runs: appending takes a
	// mutex, though it never allocates. Excluded from the cache key like Obs.
	Trace *obs.UpdateTrace
	// Spans, when non-nil, enables causal tracing: every worker network is
	// run with a causal tracer attached (bgp.EnableCausalTrace), each
	// origin's DOWN and UP phases become root causes, and per-origin and
	// per-event spans — with live Eq.-1 m·q·e attribution in their Stats —
	// are appended to the recorder. Tracing never changes results (the
	// determinism tier proves byte-identical output at every shard count),
	// so Spans is excluded from the cache key like Obs and Trace.
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
// U_y(X) = m_y(X) · q_y(X) · e_y(X).
type RelationFactors struct {
	// U is the mean number of updates received from neighbors of this
	// relation per C-event.
	U float64
	// M is the mean number of neighbors of this relation (a topology
	// property; independent of the event).
	M float64
	// Q is the mean fraction of those neighbors that sent at least one
	// update during convergence.
	Q float64
	// E is the mean number of updates per active neighbor of this
	// relation.
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
	// perTypeU[t] is this origin's mean updates over nodes of type t.
	perTypeU [4]float64
	// relU/relQ/relE aggregate the factor samples: sums and sample counts.
	relUSum, relQSum, relESum [4][3]float64
	relUCnt, relQCnt, relECnt [4][3]float64
	total                     float64
	downSec, upSec            float64
	exploration               [4]float64
	peak                      float64
	// perNodeU[id] is the update count at node id for this origin.
	perNodeU []float64
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
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(origins) {
		workers = len(origins)
	}

	// Streaming aggregation: per-origin accumulators are folded into the
	// reducer's running sums as origins complete, in origin-index order, so
	// peak memory is O(workers · N) scratch instead of O(origins · N) — the
	// difference between 100k-node sweeps fitting in RAM or not. Each worker
	// owns ONE accumulator, reused across its origins; the reducer's in-order
	// fold keeps every floating-point addition in the exact sequence the
	// batch reduction used, so results are byte-identical.
	red := newStreamReducer(topo, len(origins))
	errs := make([]error, len(origins))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := bgp.MustNew(topo, cfg.BGP)
			if cfg.Obs != nil {
				net.SetObs(cfg.Obs)
			}
			if cfg.Spans != nil {
				net.EnableCausalTrace()
			}
			if tr := cfg.Trace; tr != nil {
				net.SetUpdateHook(func(u bgp.UpdateRecord) {
					// Only fixed-size fields cross into the ring: u.Path is
					// reduced to its interned identity + length.
					tr.Append(obs.TraceRecord{
						T:       int64(u.Time),
						From:    int32(u.From),
						To:      int32(u.To),
						Prefix:  int32(u.Prefix),
						Kind:    uint8(u.Kind),
						PathLen: uint16(len(u.Path)),
						Cause:   uint32(u.Cause),
						PathID:  uint32(u.PathID),
					})
				})
			}
			var acc originAccum
			for idx := range next {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					red.skip(idx)
					continue
				}
				acc = originAccum{perNodeU: acc.perNodeU} // keep the buffer
				errs[idx] = runOneOrigin(net, topo, origins[idx], cfg.BGP.Seed+uint64(idx)*0x9e3779b97f4a7c15, settle, cfg, &acc)
				if errs[idx] != nil {
					red.skip(idx)
					continue
				}
				red.fold(idx, &acc)
			}
		}()
	}
	delivered := 0
feed:
	for i := range origins {
		select {
		case next <- i:
			delivered++
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if delivered < len(origins) {
		return nil, ctx.Err()
	}
	// Report the first failure by origin index, so the error is independent
	// of worker scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return red.result(origins), nil
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

// runOneOrigin performs the full event procedure for one originator and
// fills acc with its per-node-type statistics.
func runOneOrigin(net *bgp.Network, topo *topology.Topology, origin topology.NodeID, seed uint64, settle des.Time, cfg Config, acc *originAccum) error {
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
	collect(net, topo, acc)
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

// collect reduces per-node per-neighbor counters into per-type factor
// samples for one origin.
func collect(net *bgp.Network, topo *topology.Topology, acc *originAccum) {
	var uSum, expSum [4]float64
	var nCount [4]float64
	// The buffer is worker-owned and reused across origins; every entry is
	// assigned below, so resizing without clearing is safe.
	if cap(acc.perNodeU) < topo.N() {
		acc.perNodeU = make([]float64, topo.N())
	}
	acc.perNodeU = acc.perNodeU[:topo.N()]
	for id := 0; id < topo.N(); id++ {
		nid := topology.NodeID(id)
		typ := topo.Nodes[id].Type
		expSum[typ] += float64(net.RouteChanges(nid))
		counts := net.PerNeighborCounts(nid)
		rels := net.NeighborRelations(nid)

		var relTotal, relActive, relNb [3]float64
		total := 0.0
		for j, rel := range rels {
			c := float64(counts[j])
			relNb[rel]++
			relTotal[rel] += c
			if counts[j] > 0 {
				relActive[rel]++
			}
			total += c
		}
		uSum[typ] += total
		nCount[typ]++
		acc.perNodeU[id] = total

		for rel := 0; rel < 3; rel++ {
			acc.relUSum[typ][rel] += relTotal[rel]
			acc.relUCnt[typ][rel]++
			if relNb[rel] > 0 {
				acc.relQSum[typ][rel] += relActive[rel] / relNb[rel]
				acc.relQCnt[typ][rel]++
			}
			if relActive[rel] > 0 {
				acc.relESum[typ][rel] += relTotal[rel] / relActive[rel]
				acc.relECnt[typ][rel]++
			}
		}
	}
	for t := 0; t < 4; t++ {
		if nCount[t] > 0 {
			acc.perTypeU[t] = uSum[t] / nCount[t]
			acc.exploration[t] = expSum[t] / nCount[t]
		}
	}
}

// streamReducer merges per-origin accumulators into running aggregates
// strictly in origin-index order, as origins complete. It is the streaming
// replacement for the old batch reduce: instead of holding every origin's
// accumulator (O(origins · N) floats — 80 MB at n=100k with 100 origins,
// before any simulation state), only the running sums and one per-node vector
// live at once, and per-origin state is worker-owned scratch.
//
// Determinism. Floating-point addition is not associative, so the fold
// happens in ascending origin index — exactly the iteration order the batch
// reduce used — regardless of worker completion order. Out-of-order workers
// block in fold until every earlier origin has been folded or skipped; the
// feed hands out indices in ascending order, so the worker holding index
// `next` is never itself waiting on a later one and the fold always makes
// progress. Per-origin results that feed non-accumulated outputs (the
// MeanCI input vector) are written by index, which is order-independent.
type streamReducer struct {
	mu   sync.Mutex
	cond sync.Cond
	next int // lowest origin index not yet folded or skipped

	topo *topology.Topology
	// perOriginU[t][idx] feeds stats.MeanCI; written by index, O(origins).
	perOriginU [4][]float64
	// Running sums, folded in origin-index order.
	relUSum, relQSum, relESum [4][3]float64
	relUCnt, relQCnt, relECnt [4][3]float64
	total, down, up, peak     float64
	expl                      [4]float64
	perNode                   []float64
}

func newStreamReducer(topo *topology.Topology, origins int) *streamReducer {
	r := &streamReducer{topo: topo, perNode: make([]float64, topo.N())}
	r.cond.L = &r.mu
	for t := 0; t < 4; t++ {
		r.perOriginU[t] = make([]float64, origins)
	}
	return r
}

// await blocks until every origin index below idx has been folded or
// skipped. Callers must hold r.mu.
func (r *streamReducer) await(idx int) {
	for idx != r.next {
		r.cond.Wait()
	}
}

// skip marks idx as producing no contribution (error or cancellation), so
// later folds do not wait for it. The experiment discards the Result in that
// case; skip only keeps the pipeline draining.
func (r *streamReducer) skip(idx int) {
	r.mu.Lock()
	r.await(idx)
	r.next++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// fold merges one origin's accumulator into the running aggregates, in
// origin-index order.
func (r *streamReducer) fold(idx int, acc *originAccum) {
	r.mu.Lock()
	r.await(idx)
	for t := 0; t < 4; t++ {
		r.perOriginU[t][idx] = acc.perTypeU[t]
		r.expl[t] += acc.exploration[t]
		for rel := 0; rel < 3; rel++ {
			r.relUSum[t][rel] += acc.relUSum[t][rel]
			r.relUCnt[t][rel] += acc.relUCnt[t][rel]
			r.relQSum[t][rel] += acc.relQSum[t][rel]
			r.relQCnt[t][rel] += acc.relQCnt[t][rel]
			r.relESum[t][rel] += acc.relESum[t][rel]
			r.relECnt[t][rel] += acc.relECnt[t][rel]
		}
	}
	r.total += acc.total
	r.down += acc.downSec
	r.up += acc.upSec
	r.peak += acc.peak
	for id, v := range acc.perNodeU {
		r.perNode[id] += v
	}
	r.next++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// result finalizes the aggregates into a Result. Call only after every
// origin folded successfully.
func (r *streamReducer) result(origins []topology.NodeID) *Result {
	topo := r.topo
	res := &Result{N: topo.N(), Origins: len(origins)}
	counts := topo.CountByType()

	// The m factors are topology properties, computed exactly.
	var mSum [4][3]float64
	for i := range topo.Nodes {
		n := &topo.Nodes[i]
		mSum[n.Type][topology.Customer] += float64(len(n.Customers))
		mSum[n.Type][topology.Peer] += float64(len(n.Peers))
		mSum[n.Type][topology.Provider] += float64(len(n.Providers))
	}

	for t := 0; t < 4; t++ {
		tr := &res.ByType[t]
		tr.Nodes = counts[t]
		tr.U, tr.CI95 = stats.MeanCI(r.perOriginU[t], 0.95)
		for rel := 0; rel < 3; rel++ {
			rf := &tr.ByRel[rel]
			if counts[t] > 0 {
				rf.M = mSum[t][rel] / float64(counts[t])
			}
			if r.relUCnt[t][rel] > 0 {
				rf.U = r.relUSum[t][rel] / r.relUCnt[t][rel]
			}
			if r.relQCnt[t][rel] > 0 {
				rf.Q = r.relQSum[t][rel] / r.relQCnt[t][rel]
			}
			if r.relECnt[t][rel] > 0 {
				rf.E = r.relESum[t][rel] / r.relECnt[t][rel]
			}
		}
	}
	k := float64(len(origins))
	res.TotalUpdates = r.total / k
	res.DownSeconds = r.down / k
	res.UpSeconds = r.up / k
	res.PeakRate = r.peak / k
	for t := 0; t < 4; t++ {
		res.PathExploration[t] = r.expl[t] / k
	}

	// Per-node means over origins, then the within-type distribution.
	var byType [4][]float64
	for id := range r.perNode {
		r.perNode[id] /= k
		typ := topo.Nodes[id].Type
		byType[typ] = append(byType[typ], r.perNode[id])
	}
	for t := 0; t < 4; t++ {
		res.Spread[t] = stats.Summarize(byType[t])
	}
	return res
}
