package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names; a test keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload emits every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"updates_per_s", "1/s"},
	{"cpu_us_per_update", "us"},
	{"peak_rss_mb", "MB"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
}

// perLayer is measured by the traced run; the prefix is the module. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"run.wall_s", "s"},
	{"run.cpu_s", "s"},
	{"run.cells_per_s", "1/s"},
	{"run.failed_frac", "frac"},

	{"topology.generate_s", "s"},
	{"topology.grow_s", "s"},
	{"topology.validate_s", "s"},
	{"topology.edges", "count"},
	{"topology.phase.clique_s", "s"},
	{"topology.phase.mnodes_s", "s"},
	{"topology.phase.stubs_s", "s"},
	{"topology.phase.cones_s", "s"},
	{"topology.phase.mpeering_s", "s"},
	{"topology.phase.cppeering_s", "s"},
	{"scenario.params_s", "s"},

	{"bgp.new_s", "s"},
	{"bgp.reset_s", "s"},
	{"bgp.warmstart_s", "s"},
	{"bgp.flood_s", "s"},
	{"bgp.down_run_s", "s"},
	{"bgp.settle_s", "s"},
	{"bgp.up_run_s", "s"},
	{"bgp.ns_per_update", "ns"},
	{"bgp.updates_processed", "count"},
	{"bgp.announcements_sent", "count"},
	{"bgp.withdrawals_sent", "count"},
	{"bgp.mrai_flushes", "count"},
	{"bgp.inbox_deferrals", "count"},
	{"bgp.event_pool_hit_frac", "frac"},
	{"bgp.intern.paths", "count"},
	{"bgp.intern.bytes", "B"},
	{"bgp.intern.hit_frac", "frac"},
	{"bgp.path_arena_mb", "MB"},

	{"des.events_fired", "count"},
	{"des.ring_push_frac", "frac"},
	{"des.events_per_update", "ratio"},
	{"des.ns_per_event", "ns"},

	{"shard.barriers", "count"},
	{"shard.cross_update_frac", "frac"},
	{"shard.window_skew_ms_mean", "ms"},
	{"shard.serial_wall_s", "s"},
	{"shard.speedup", "ratio"},

	{"core.origin_ms_p50", "ms"},
	{"core.origin_ms_max", "ms"},
	{"core.origin_self_ms", "ms"},
	{"core.collect_s", "s"},
	{"core.sched.cells_computed", "count"},
	{"core.sched.cache_hits", "count"},
	{"core.sched.cache_hit_frac", "frac"},
	{"core.sched.worker_busy_frac", "frac"},
	{"core.journal.append_ms_p50", "ms"},
	{"core.journal.append_ms_tail", "ms"},
	{"core.journal.load_s", "s"},
	{"core.journal.bytes_per_cell", "B"},

	{"serve.jobs_per_s", "1/s"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.stream_open_ms_p50", "ms"},
	{"serve.first_cell_ms_p50", "ms"},
	{"serve.first_cell_ms_tail", "ms"},
	{"serve.job_ms_p50", "ms"},
	{"serve.job_ms_tail", "ms"},
	{"serve.csv_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.shed_count", "count"},
	{"serve.dedup_hit_frac", "frac"},
	{"serve.sse_dropped", "count"},

	{"report.csv_write_ms", "ms"},

	{"obs.trace_overhead_frac", "frac"},
	{"trace.covered_frac", "frac"},
	{"trace.mirror_updates_ratio", "ratio"},
	{"trace.mirror_run_ratio", "ratio"},

	{"runtime.total_alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_inuse_mb", "MB"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string { return units[name] }
