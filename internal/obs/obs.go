// Package obs is the instrumentation substrate the whole simulator reports
// into: sharded cache-line-padded atomic counters and gauges, fixed-bucket
// histograms, causal span records, per-run manifests, and live exposition
// over HTTP (Prometheus text format, expvar, pprof, the /progress feed).
//
// The package is designed so the kernel's zero-allocation steady state
// survives instrumentation. Probe call sites in hot paths hold a pointer to
// a pre-resolved probe block (see probes.go) that is nil when observability
// is off, so a disabled probe compiles down to one nil check. An enabled
// probe performs plain atomic adds on memory that no other goroutine
// increments: every consumer (a Network, a Scheduler) gets its own shard of
// each metric, and shards are padded to the cache line so two consumers
// never contend on one line. Nothing on the probe path allocates, takes a
// lock, consumes randomness, or reads the virtual clock — instrumentation
// cannot perturb simulation order or RNG draws, which keeps the determinism
// tier byte-identical with obs enabled. The memory model is documented in
// DESIGN.md ("Observability: probe memory model").
//
// obs deliberately imports only the standard library and none of the
// simulator's packages, so every layer (des, bgp, core, topology) can
// depend on it without cycles.
package obs

import (
	"runtime"
	"sync/atomic"
)

// cacheLineSize is the assumed cache-line granularity for shard padding.
// 64 bytes covers x86-64 and current arm64 server cores; on CPUs with
// larger lines the only cost is some residual false sharing.
const cacheLineSize = 64

// ShardID selects one shard of every sharded metric. IDs are handed out
// round-robin by Metrics.Shard; values beyond the shard count wrap (the
// cell lookup masks them), so any uint32 is safe.
type ShardID uint32

// Cell is one counter shard: an atomic uint64 padded to a full cache line
// so adjacent cells (other shards, other metrics) never share a line with
// it. Hot paths pre-resolve the cells they increment (see probes.go) and
// call Inc/Add directly — one atomic add on exclusive memory, no alloc.
type Cell struct {
	n atomic.Uint64
	_ [cacheLineSize - 8]byte
}

// Inc adds 1.
func (c *Cell) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Cell) Add(d uint64) { c.n.Add(d) }

// Load returns the shard's current value.
func (c *Cell) Load() uint64 { return c.n.Load() }

// GaugeCell is one gauge shard. Deltas may be negative; the gauge's value
// is the sum over shards, so a consumer that increments on one shard and
// decrements on the same shard keeps the global sum exact.
type GaugeCell struct {
	n atomic.Int64
	_ [cacheLineSize - 8]byte
}

// Add applies a (possibly negative) delta.
func (g *GaugeCell) Add(d int64) { g.n.Add(d) }

// Load returns the shard's current value.
func (g *GaugeCell) Load() int64 { return g.n.Load() }

// Counter is a monotonically increasing sharded metric.
type Counter struct {
	name, help string
	cells      []Cell
	mask       uint32
	// scale divides the raw value at exposition time (e.g. nanoseconds
	// stored, seconds exposed); 0 means 1.
	scale float64
}

// Name returns the exposition name.
func (c *Counter) Name() string { return c.name }

// Cell returns the shard's cell for direct (pre-resolved) incrementing.
func (c *Counter) Cell(s ShardID) *Cell { return &c.cells[uint32(s)&c.mask] }

// Add adds d on the given shard.
func (c *Counter) Add(s ShardID, d uint64) { c.Cell(s).Add(d) }

// Value returns the sum over all shards.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// scaled returns the exposition value (raw sum divided by the scale).
func (c *Counter) scaled() float64 {
	v := float64(c.Value())
	if c.scale != 0 {
		v /= c.scale
	}
	return v
}

// Gauge is a sharded metric that can go up and down (queue occupancy).
type Gauge struct {
	name, help string
	cells      []GaugeCell
	mask       uint32
}

// Name returns the exposition name.
func (g *Gauge) Name() string { return g.name }

// Cell returns the shard's cell for direct incrementing.
func (g *Gauge) Cell(s ShardID) *GaugeCell { return &g.cells[uint32(s)&g.mask] }

// Add applies a delta on the given shard.
func (g *Gauge) Add(s ShardID, d int64) { g.Cell(s).Add(d) }

// Value returns the sum over all shards.
func (g *Gauge) Value() int64 {
	var sum int64
	for i := range g.cells {
		sum += g.cells[i].n.Load()
	}
	return sum
}

// Metrics is the hub: every metric the simulator exports, pre-registered
// with stable names so exposition order is deterministic. Create one per
// run with New, hand it to the layers (core.Config.Obs, Scheduler.SetObs,
// bgp.Network.SetObs, topology.SetObsProbes) and serve or snapshot it.
// All methods are safe for concurrent use; increments may race with
// scrapes, which read each shard atomically (per-metric totals are exact
// for quiescent metrics and at worst one event stale for live ones).
type Metrics struct {
	shards    uint32 // power of two
	nextShard atomic.Uint32

	// DES instruments the discrete-event kernel (internal/des).
	DES struct {
		EventsScheduled *Counter // queue insertions (ring + far heap)
		EventsFired     *Counter // events executed
		RingPushes      *Counter // near-band (timeRing) insertions
		FarPushes       *Counter // far-heap insertions
		RingOccupancy   *Gauge   // events currently in the time ring
		FarOccupancy    *Gauge   // events currently in the far heap
	}

	// BGP instruments the protocol engine (internal/bgp).
	BGP struct {
		AnnouncementsSent *Counter // updates transmitted, kind Announce
		WithdrawalsSent   *Counter // updates transmitted, kind Withdraw
		UpdatesProcessed  *Counter // procEvent completions
		MRAIFlushes       *Counter // per-interface flush events fired
		PrefixMRAIFlushes *Counter // per-prefix flush events fired
		InboxDeferrals    *Counter // deliveries parked behind a busy receiver
		InternedPaths     *Counter // distinct AS paths interned
		InternBytes       *Counter // slab bytes storing interned path content
		InternHits        *Counter // intern lookups served by an existing entry
	}

	// Shards instruments the sharded windowed executor's barrier
	// coordinator (internal/bgp with Config.LinkDelay > 0).
	Shards struct {
		Barriers     *Counter   // synchronization windows executed
		CrossUpdates *Counter   // updates exchanged across shard boundaries
		WindowSkew   *Histogram // per-window max-min shard wall time (stall)
	}

	// Core instruments the experiment scheduler (internal/core).
	Core struct {
		CellsComputed    *Counter   // grid cells actually computed
		CellsCached      *Counter   // grid cells served from the result cache
		CellsFailed      *Counter   // grid cells that ended in an error
		CacheEvictions   *Counter   // results dropped by the LRU cap
		CellRetries      *Counter   // retry attempts after transient faults
		PanicsRecovered  *Counter   // panics recovered inside cell workers
		CellsQuarantined *Counter   // cells quarantined after retry exhaustion
		CellsCancelled   *Counter   // cells abandoned by grid cancellation
		CellsResumed     *Counter   // cells served from a replayed journal
		JournalWrites    *Counter   // checkpoint records appended
		JournalLoads     *Counter   // checkpoint records replayed into the cache
		CellSeconds      *Histogram // wall time per computed cell
		CancelSeconds    *Histogram // cancellation latency: cancel to grid drain
	}

	// Serve instruments the churnd serving layer (internal/serve): job
	// admission, load shedding, journal recovery and drain.
	Serve struct {
		JobsAdmitted    *Counter   // jobs accepted into the admission queue
		JobsShed        *Counter   // jobs refused with 429 (queue full)
		JobsRejected    *Counter   // jobs refused with 400 (invalid submission)
		JobsCompleted   *Counter   // jobs that finished with every cell done
		JobsFailed      *Counter   // jobs that finished with a failed cell
		JobsCancelled   *Counter   // jobs cancelled by clients or drain
		CellsDispatched *Counter   // cells handed to the shared scheduler
		CellsRecovered  *Counter   // journal records replayed at daemon startup
		QueueDepth      *Gauge     // jobs admitted and not yet finished
		DrainSeconds    *Histogram // graceful-drain duration per shutdown
	}

	// Topo instruments topology generation (internal/topology).
	Topo struct {
		Generated    *Counter                  // topologies generated
		Nodes        *Counter                  // nodes created across all generations
		Edges        *Counter                  // links created across all generations
		GenSeconds   *Histogram                // wall time per generation
		PhaseSeconds [GenPhaseCount]*Histogram // wall time per generation phase
	}

	// registration order, for deterministic exposition.
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// New builds a metrics hub with every simulator metric registered. The
// shard count is the smallest power of two covering GOMAXPROCS, capped at
// 64 (beyond that the padding cost outweighs contention savings).
func New() *Metrics {
	shards := uint32(1)
	for int(shards) < runtime.GOMAXPROCS(0) && shards < 64 {
		shards <<= 1
	}
	m := &Metrics{shards: shards}

	m.DES.EventsScheduled = m.counter("bgpchurn_des_events_scheduled_total", "Events inserted into the pending queue (time ring + far heap). An update the BGP engine completes at admission (a stub's, inside a run) is no event and is not counted.")
	m.DES.EventsFired = m.counter("bgpchurn_des_events_fired_total", "Events executed by the schedulers. Updates completed at admission fire none: compare bgpchurn_bgp_updates_processed_total.")
	m.DES.RingPushes = m.counter("bgpchurn_des_ring_pushes_total", "Insertions into the near-band time ring.")
	m.DES.FarPushes = m.counter("bgpchurn_des_far_pushes_total", "Insertions into the far 4-ary heap.")
	m.DES.RingOccupancy = m.gauge("bgpchurn_des_ring_occupancy", "Events currently pending in the time ring.")
	m.DES.FarOccupancy = m.gauge("bgpchurn_des_far_occupancy", "Events currently pending in the far heap.")

	m.BGP.AnnouncementsSent = m.counter("bgpchurn_bgp_announcements_sent_total", "Announce updates transmitted.")
	m.BGP.WithdrawalsSent = m.counter("bgpchurn_bgp_withdrawals_sent_total", "Withdraw updates transmitted.")
	m.BGP.UpdatesProcessed = m.counter("bgpchurn_bgp_updates_processed_total", "Updates fully processed by receivers.")
	m.BGP.MRAIFlushes = m.counter("bgpchurn_bgp_mrai_flushes_total", "Per-interface MRAI flush events fired.")
	m.BGP.PrefixMRAIFlushes = m.counter("bgpchurn_bgp_prefix_mrai_flushes_total", "Per-prefix MRAI flush events fired.")
	m.BGP.InboxDeferrals = m.counter("bgpchurn_bgp_inbox_deferrals_total", "Deliveries parked in a receiver inbox behind an in-flight event (updates completed at admission never park).")
	m.BGP.InternedPaths = m.counter("bgpchurn_bgp_interned_paths_total", "Distinct AS paths interned.")
	m.BGP.InternBytes = m.counter("bgpchurn_bgp_intern_bytes_total", "Slab bytes storing interned AS path content.")
	m.BGP.InternHits = m.counter("bgpchurn_bgp_intern_hits_total", "Path intern lookups served by an existing entry.")

	m.Shards.Barriers = m.counter("bgpchurn_shard_barriers_total", "Synchronization windows executed by the sharded DES coordinator; a window that would hold only updates completed at admission is never opened.")
	m.Shards.CrossUpdates = m.counter("bgpchurn_shard_cross_updates_total", "Updates admitted from another partition of the sharded DES at a window barrier.")
	m.Shards.WindowSkew = m.histogram("bgpchurn_shard_window_skew_seconds", "Per-window worker skew of the sharded DES: max minus min over the workers of the wall time spent in the window's tasks (what the least loaded worker idles at the barrier).",
		[]float64{0.000001, 0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1})

	m.Core.CellsComputed = m.counter("bgpchurn_core_cells_computed_total", "Experiment grid cells computed.")
	m.Core.CellsCached = m.counter("bgpchurn_core_cells_cached_total", "Experiment grid cells served from the result cache.")
	m.Core.CellsFailed = m.counter("bgpchurn_core_cells_failed_total", "Experiment grid cells that failed.")
	m.Core.CacheEvictions = m.counter("bgpchurn_core_cache_evictions_total", "Cached results evicted by the LRU cap.")
	m.Core.CellRetries = m.counter("bgpchurn_core_cell_retries_total", "Cell retry attempts after transient faults (panics, timeouts).")
	m.Core.PanicsRecovered = m.counter("bgpchurn_core_panics_recovered_total", "Panics recovered inside cell workers.")
	m.Core.CellsQuarantined = m.counter("bgpchurn_core_cells_quarantined_total", "Cells quarantined after exhausting the retry budget.")
	m.Core.CellsCancelled = m.counter("bgpchurn_core_cells_cancelled_total", "Cells abandoned because the grid context was cancelled.")
	m.Core.CellsResumed = m.counter("bgpchurn_core_cells_resumed_total", "Cells served from a checkpoint journal replayed at startup.")
	m.Core.JournalWrites = m.counter("bgpchurn_core_journal_writes_total", "Checkpoint records appended to the cell journal.")
	m.Core.JournalLoads = m.counter("bgpchurn_core_journal_loads_total", "Checkpoint records replayed into the scheduler cache.")
	m.Core.CellSeconds = m.histogram("bgpchurn_core_cell_seconds", "Wall-clock seconds per computed grid cell.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	m.Core.CancelSeconds = m.histogram("bgpchurn_core_cancel_seconds", "Seconds from grid-context cancellation to worker-pool drain.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})

	m.Serve.JobsAdmitted = m.counter("bgpchurn_serve_jobs_admitted_total", "Jobs accepted into the serving admission queue.")
	m.Serve.JobsShed = m.counter("bgpchurn_serve_jobs_shed_total", "Jobs shed with 429 because the admission queue was full.")
	m.Serve.JobsRejected = m.counter("bgpchurn_serve_jobs_rejected_total", "Jobs rejected with 400 for invalid submissions.")
	m.Serve.JobsCompleted = m.counter("bgpchurn_serve_jobs_completed_total", "Jobs that finished with every cell done.")
	m.Serve.JobsFailed = m.counter("bgpchurn_serve_jobs_failed_total", "Jobs that finished with at least one failed cell.")
	m.Serve.JobsCancelled = m.counter("bgpchurn_serve_jobs_cancelled_total", "Jobs cancelled by clients or by server drain.")
	m.Serve.CellsDispatched = m.counter("bgpchurn_serve_cells_dispatched_total", "Cells dispatched from jobs to the shared scheduler.")
	m.Serve.CellsRecovered = m.counter("bgpchurn_serve_cells_recovered_total", "Journal checkpoint records recovered into the cache at daemon startup.")
	m.Serve.QueueDepth = m.gauge("bgpchurn_serve_queue_depth", "Jobs admitted and not yet finished.")
	m.Serve.DrainSeconds = m.histogram("bgpchurn_serve_drain_seconds", "Graceful-drain duration per shutdown.",
		[]float64{0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120})

	m.Topo.Generated = m.counter("bgpchurn_topo_generated_total", "Topologies generated.")
	m.Topo.Nodes = m.counter("bgpchurn_topo_nodes_total", "Nodes created by topology generation.")
	m.Topo.Edges = m.counter("bgpchurn_topo_edges_total", "Links created by topology generation.")
	m.Topo.GenSeconds = m.histogram("bgpchurn_topo_gen_seconds", "Wall-clock seconds per topology generation.",
		[]float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 10})
	for ph := GenPhase(0); ph < GenPhaseCount; ph++ {
		m.Topo.PhaseSeconds[ph] = m.histogram(
			"bgpchurn_topo_phase_"+ph.String()+"_seconds",
			"Wall-clock seconds in the "+ph.String()+" topology-generation phase.",
			[]float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 10})
	}

	return m
}

// Shard hands out the next shard ID, round-robin. Each consumer (one
// Network, one Scheduler) takes one ID at setup time and uses it for all
// its metrics, giving it private cache lines up to the shard count.
func (m *Metrics) Shard() ShardID {
	return ShardID((m.nextShard.Add(1) - 1) & (m.shards - 1))
}

func (m *Metrics) counter(name, help string) *Counter {
	c := &Counter{name: name, help: help, cells: make([]Cell, m.shards), mask: m.shards - 1}
	m.counters = append(m.counters, c)
	return c
}

func (m *Metrics) gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help, cells: make([]GaugeCell, m.shards), mask: m.shards - 1}
	m.gauges = append(m.gauges, g)
	return g
}

func (m *Metrics) histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds, int(m.shards))
	m.hists = append(m.hists, h)
	return h
}
