// Package obs is the instrumentation substrate the whole simulator reports
// into: atomic counters and gauges, fixed-bucket histograms, causal span
// records, per-run manifests, and live exposition over HTTP (Prometheus text
// format, expvar, pprof, the /progress feed).
//
// Metrics are published, not probed. The simulation engine counts in plain
// fields of its own state — the fields it already keeps for its results
// where it has them — and adds what it counted to the hub once per run
// (bgp.Network.RunUntil), so nothing on the per-event path touches a
// metric. The layers that move at per-cell, per-job and per-generation rates
// (internal/core, internal/serve, internal/topology) add to the hub
// directly. Every metric is a single atomic that a scrape reads exactly; an
// engine metric is stale by at most the run in progress. Nothing in the
// simulation reads a metric back, so instrumented runs are byte-identical to
// bare ones. DESIGN.md, "Observability: publication model", has the model
// and the catalogue of every metric.
//
// obs deliberately imports only the standard library and none of the
// simulator's packages, so every layer (bgp, core, serve, topology) can
// depend on it without cycles.
package obs

import "sync/atomic"

// Counter is a monotonically increasing metric.
type Counter struct {
	name, help string
	n          atomic.Uint64
}

// Name returns the exposition name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a metric that can go up and down (queue depth).
type Gauge struct {
	name, help string
	n          atomic.Int64
}

// Name returns the exposition name.
func (g *Gauge) Name() string { return g.name }

// Add applies a (possibly negative) delta.
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Metrics is the hub: every metric the simulator exports, pre-registered
// with stable names so exposition order is deterministic. Create one per
// run with New, hand it to the layers (core.Config.Obs, Scheduler.SetObs,
// bgp.Network.SetObs, topology.SetObsProbes) and serve or snapshot it.
// All methods are safe for concurrent use; publications may race with
// scrapes, which read each metric atomically.
type Metrics struct {
	// DES counts the discrete-event kernel's queue traffic (internal/des),
	// published by the BGP engine that owns the schedulers.
	DES struct {
		EventsFired *Counter // events executed
		RingPushes  *Counter // near-band (timeRing) insertions
		FarPushes   *Counter // far-heap insertions
	}

	// BGP instruments the protocol engine (internal/bgp).
	BGP struct {
		AnnouncementsSent *Counter // updates transmitted, kind Announce
		WithdrawalsSent   *Counter // updates transmitted, kind Withdraw
		UpdatesProcessed  *Counter // updates processed by receivers
		MRAIFlushes       *Counter // per-interface flush events fired
		PrefixMRAIFlushes *Counter // per-prefix flush events fired
		MRAIEmptyFlushes  *Counter // flushes of either kind that sent nothing
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

	// Core instruments the experiment scheduler (internal/core). Cache
	// traffic — hits, resumes, evictions, retries, quarantines and
	// cancellations — is not here: core.Scheduler.CacheStats exports it.
	Core struct {
		CellsComputed   *Counter   // grid cells actually computed
		CellsFailed     *Counter   // grid cells that ended in an error
		PanicsRecovered *Counter   // panics recovered inside cell workers
		JournalWrites   *Counter   // checkpoint records appended
		JournalLoads    *Counter   // checkpoint records replayed into the cache
		CellSeconds     *Histogram // wall time per computed cell
		CancelSeconds   *Histogram // cancellation latency: cancel to grid drain
	}

	// Serve instruments the churnd serving layer (internal/serve): job
	// admission, load shedding and drain. Journal recovery at startup is
	// Core.JournalLoads.
	Serve struct {
		JobsAdmitted    *Counter   // jobs accepted into the admission queue
		JobsShed        *Counter   // jobs refused with 429 (queue full)
		JobsRejected    *Counter   // jobs refused with 400 (invalid submission)
		JobsCompleted   *Counter   // jobs that finished with every cell done
		JobsFailed      *Counter   // jobs that finished with a failed cell
		JobsCancelled   *Counter   // jobs cancelled by clients or drain
		CellsDispatched *Counter   // cells handed to the shared scheduler
		QueueDepth      *Gauge     // jobs admitted and not yet finished
		DrainSeconds    *Histogram // graceful-drain duration per shutdown
	}

	// Topo instruments topology generation (internal/topology).
	Topo TopoProbes

	// registration order, for deterministic exposition.
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// New builds a metrics hub with every simulator metric registered.
func New() *Metrics {
	m := &Metrics{}

	m.DES.EventsFired = m.counter("bgpchurn_des_events_fired_total", "Events executed by the schedulers. Updates completed at admission fire none: compare bgpchurn_bgp_updates_processed_total.")
	m.DES.RingPushes = m.counter("bgpchurn_des_ring_pushes_total", "Insertions into the near-band time ring.")
	m.DES.FarPushes = m.counter("bgpchurn_des_far_pushes_total", "Insertions into the far 4-ary heap.")

	m.BGP.AnnouncementsSent = m.counter("bgpchurn_bgp_announcements_sent_total", "Announce updates transmitted.")
	m.BGP.WithdrawalsSent = m.counter("bgpchurn_bgp_withdrawals_sent_total", "Withdraw updates transmitted.")
	m.BGP.UpdatesProcessed = m.counter("bgpchurn_bgp_updates_processed_total", "Updates fully processed by receivers.")
	m.BGP.MRAIFlushes = m.counter("bgpchurn_bgp_mrai_flushes_total", "Per-interface MRAI flush events fired.")
	m.BGP.PrefixMRAIFlushes = m.counter("bgpchurn_bgp_prefix_mrai_flushes_total", "Per-prefix MRAI flush events fired.")
	m.BGP.MRAIEmptyFlushes = m.counter("bgpchurn_bgp_mrai_empty_flushes_total", "MRAI flush events, per-interface or per-prefix, that found nothing queued or the link down and sent nothing.")
	m.BGP.InboxDeferrals = m.counter("bgpchurn_bgp_inbox_deferrals_total", "Deliveries parked in a receiver inbox behind an in-flight event (updates completed at admission never park).")
	m.BGP.InternedPaths = m.counter("bgpchurn_bgp_interned_paths_total", "Distinct AS paths interned.")
	m.BGP.InternBytes = m.counter("bgpchurn_bgp_intern_bytes_total", "Slab bytes storing interned AS path content.")
	m.BGP.InternHits = m.counter("bgpchurn_bgp_intern_hits_total", "Path intern lookups served by an existing entry.")

	m.Shards.Barriers = m.counter("bgpchurn_shard_barriers_total", "Synchronization windows executed by the sharded DES coordinator; a window that would hold only updates completed at admission is never opened.")
	m.Shards.CrossUpdates = m.counter("bgpchurn_shard_cross_updates_total", "Updates admitted from another partition of the sharded DES at a window barrier.")
	m.Shards.WindowSkew = m.histogram("bgpchurn_shard_window_skew_seconds", "Per-window worker skew of the sharded DES: max minus min over the workers of the wall time spent in the window's tasks (what the least loaded worker idles at the barrier).",
		[]float64{0.000001, 0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1})

	m.Core.CellsComputed = m.counter("bgpchurn_core_cells_computed_total", "Experiment grid cells computed.")
	m.Core.CellsFailed = m.counter("bgpchurn_core_cells_failed_total", "Experiment grid cells that failed.")
	m.Core.PanicsRecovered = m.counter("bgpchurn_core_panics_recovered_total", "Panics recovered inside cell workers.")
	m.Core.JournalWrites = m.counter("bgpchurn_core_journal_writes_total", "Checkpoint records appended to the cell journal.")
	m.Core.JournalLoads = m.counter("bgpchurn_core_journal_loads_total", "Checkpoint records replayed into the scheduler cache.")
	m.Core.CellSeconds = m.histogram("bgpchurn_core_cell_seconds", "Wall-clock seconds per computed grid cell.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	m.Core.CancelSeconds = m.histogram("bgpchurn_core_cancel_seconds", "Seconds from RunGrid context cancellation to worker-pool drain (RunGrid only: churnd's single Scheduler.Cell calls do not feed it).",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})

	m.Serve.JobsAdmitted = m.counter("bgpchurn_serve_jobs_admitted_total", "Jobs accepted into the serving admission queue.")
	m.Serve.JobsShed = m.counter("bgpchurn_serve_jobs_shed_total", "Jobs shed with 429 because the admission queue was full.")
	m.Serve.JobsRejected = m.counter("bgpchurn_serve_jobs_rejected_total", "Jobs rejected with 400 for invalid submissions.")
	m.Serve.JobsCompleted = m.counter("bgpchurn_serve_jobs_completed_total", "Jobs that finished with every cell done.")
	m.Serve.JobsFailed = m.counter("bgpchurn_serve_jobs_failed_total", "Jobs that finished with at least one failed cell.")
	m.Serve.JobsCancelled = m.counter("bgpchurn_serve_jobs_cancelled_total", "Jobs cancelled by clients or by server drain.")
	m.Serve.CellsDispatched = m.counter("bgpchurn_serve_cells_dispatched_total", "Cells dispatched from jobs to the shared scheduler.")
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

func (m *Metrics) counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	m.counters = append(m.counters, c)
	return c
}

func (m *Metrics) gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	m.gauges = append(m.gauges, g)
	return g
}

func (m *Metrics) histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, bounds)
	m.hists = append(m.hists, h)
	return h
}
