package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
)

// Helpers shared by the traced runs: each measures one layer from outside
// and sets that layer's metrics on the outcome.

// setCounters maps the counters obs.Metrics already exports to the bgp, des
// and shard count metrics. snap is Metrics.Snapshot() of a hub that saw only
// the traced work.
func setCounters(o *outcome, snap map[string]float64) {
	c := func(name string) float64 { return snap["bgpchurn_"+name] }
	upd := c("bgp_updates_processed_total")
	o.set("bgp.updates_processed", upd)
	o.set("bgp.announcements_sent", c("bgp_announcements_sent_total"))
	o.set("bgp.withdrawals_sent", c("bgp_withdrawals_sent_total"))
	o.set("bgp.mrai_flushes", c("bgp_mrai_flushes_total")+c("bgp_prefix_mrai_flushes_total"))
	o.set("bgp.inbox_deferrals", c("bgp_inbox_deferrals_total"))
	hits, misses := c("bgp_event_pool_hits_total"), c("bgp_event_pool_misses_total")
	o.set("bgp.event_pool_hit_frac", ratio(hits, hits+misses))
	paths, ihits := c("bgp_interned_paths_total"), c("bgp_intern_hits_total")
	o.set("bgp.intern.paths", paths)
	o.set("bgp.intern.bytes", c("bgp_intern_bytes_total"))
	o.set("bgp.intern.hit_frac", ratio(ihits, ihits+paths))
	o.set("bgp.path_arena_mb", c("bgp_path_arena_bytes_total")/(1<<20))

	fired := c("des_events_fired_total")
	ring, far := c("des_ring_pushes_total"), c("des_far_pushes_total")
	o.set("des.events_fired", fired)
	o.set("des.ring_push_frac", ratio(ring, ring+far))
	o.set("des.events_per_update", ratio(fired, upd))

	o.set("shard.barriers", c("shard_barriers_total"))
	o.set("shard.cross_update_frac", ratio(c("shard_cross_updates_total"), upd))
	o.set("shard.window_skew_ms_mean", 1e3*ratio(c("shard_window_skew_seconds_sum"), c("shard_window_skew_seconds_count")))

	o.set("topology.edges", c("topo_edges_total"))
	for ph := obs.GenPhase(0); ph < obs.GenPhaseCount; ph++ {
		o.set("topology.phase."+ph.String()+"_s", c("topo_phase_"+ph.String()+"_seconds_sum"))
	}
}

// setEventRun reports host nanoseconds per simulated update inside the
// measured DOWN/UP Network.Run calls, from the program's own event spans
// (duration and the update count each span carries).
func setEventRun(o *outcome, spans []obs.SpanRecord) {
	var us, updates float64
	n := 0
	for _, s := range spans {
		if s.Level == obs.SpanEvent {
			us += s.DurUS
			updates += s.Stats["updates"]
			n++
		}
	}
	o.setN("bgp.ns_per_update", 1e3*ratio(us, updates), n)
}

// setMirror reports the mirror's per-step seconds and its agreement with
// the program pass it mirrored.
func setMirror(o *outcome, mr mirrorResult) {
	mt := mr.times
	o.set("bgp.new_s", mt.newS)
	o.set("bgp.reset_s", mt.resetS)
	o.set("bgp.warmstart_s", mt.warmS)
	o.set("bgp.flood_s", mt.floodS)
	o.set("bgp.down_run_s", mt.downS)
	o.set("bgp.settle_s", mt.settleS)
	o.set("bgp.up_run_s", mt.upS)
	o.set("core.collect_s", mt.collectS)
	o.set("trace.mirror_updates_ratio", ratio(mt.updates, mr.programUpdates))
	o.set("trace.mirror_run_ratio", ratio(mt.runS(), mr.programRunS))
	if mt.updates != mr.programUpdates {
		o.problemf("mirror processed %.0f updates, program %.0f: the mirror no longer matches core.runOneOrigin", mt.updates, mr.programUpdates)
	}
}

// setOriginSpans reports the program's own origin spans: duration median and
// maximum, and mean self time (origin minus its event spans), in ms.
func setOriginSpans(o *outcome, spans []obs.SpanRecord) {
	var durs []float64
	var originUS, eventUS float64
	for _, s := range spans {
		switch s.Level {
		case obs.SpanOrigin:
			durs = append(durs, s.DurUS/1e3)
			originUS += s.DurUS
		case obs.SpanEvent:
			eventUS += s.DurUS
		}
	}
	if len(durs) == 0 {
		return
	}
	n := len(durs)
	o.setN("core.origin_ms_p50", median(durs), n)
	o.setN("core.origin_ms_max", slices.Max(durs), n)
	o.setN("core.origin_self_ms", (originUS-eventUS)/1e3/float64(n), n)
}

// probeJournal times Journal.Append (one fsynced line each) and LoadJournal
// directly on the workload's own results, cycling through them with distinct
// keys until e.sc.journalProbes records are written.
func probeJournal(e *env, o *outcome, rec *recorder, parent int, rows []resultRow) error {
	dir, err := e.tmpDir("journal-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cells.journal")
	j, err := core.OpenJournal(path)
	if err != nil {
		return err
	}
	ev := core.DefaultConfig(e.seed)
	var ms []float64
	for i := 0; i < e.sc.journalProbes; i++ {
		r := rows[i%len(rows)]
		key := core.KeyFor(r.scenario, r.n, e.seed+uint64(i), ev)
		id := rec.start(parent, "", "core.journal_append")
		t0 := time.Now()
		err := j.Append(key, r.res)
		ms = append(ms, 1e3*time.Since(t0).Seconds())
		rec.end(id)
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	id := rec.start(parent, "", "core.journal_load")
	t0 := time.Now()
	recs, _, err := core.LoadJournal(path)
	loadS := time.Since(t0).Seconds()
	rec.end(id)
	if err != nil {
		return err
	}
	if len(recs) != len(ms) {
		o.problemf("journal probe wrote %d records, loaded %d", len(ms), len(recs))
	}
	o.setN("core.journal.append_ms_p50", median(ms), len(ms))
	o.setN("core.journal.append_ms_tail", quantile(ms, tailPercentile(len(ms))/100), len(ms))
	o.setN("core.journal.load_s", loadS, len(recs))
	o.set("core.journal.bytes_per_cell", ratio(float64(fi.Size()), float64(len(ms))))
	return nil
}

// probeCSV times report.Table.WriteCSV on the workload's result table.
func probeCSV(o *outcome, rec *recorder, parent int, rows []resultRow) error {
	id := rec.start(parent, "", "report.write_csv")
	t0 := time.Now()
	_, err := resultCSV(rows)
	o.setN("report.csv_write_ms", 1e3*time.Since(t0).Seconds(), len(rows))
	rec.end(id)
	return err
}

// synthEvent is the synthetic schedule's only event: each firing schedules
// its successor, near (inside the scheduler's time ring) or far (heap) at the
// mix the traced run observed.
type synthEvent struct {
	r        *rng.Source
	nearFrac float64
	left     int
}

func (ev *synthEvent) Fire(s *des.Scheduler) {
	if ev.left <= 0 {
		return
	}
	ev.left--
	d := des.Time(ev.r.UniformDuration(int64(100 * des.Millisecond)))
	if ev.r.Float64() >= ev.nearFrac {
		d = des.Second + des.Time(ev.r.UniformDuration(int64(29*des.Second)))
	}
	s.At(s.Now()+d, ev)
}

// probeDES pushes a fixed-length synthetic schedule through
// des.Scheduler.At/Run with a standing population of 1024 pending events and
// reports host nanoseconds per event: the queue's own cost, with no BGP work
// behind the events.
func probeDES(e *env, o *outcome, rec *recorder, parent int, nearFrac float64) {
	const population = 1024
	ev := &synthEvent{r: rng.New(e.seed ^ 0xde5), nearFrac: nearFrac, left: e.sc.desEvents}
	var s des.Scheduler
	for i := 0; i < population; i++ {
		s.At(des.Time(i), ev)
	}
	id := rec.start(parent, "", "des.synthetic_run")
	t0 := time.Now()
	fired := s.Run()
	d := time.Since(t0)
	rec.end(id)
	o.setN("des.ns_per_event", ratio(float64(d.Nanoseconds()), float64(fired)), int(fired))
}

// setRuntime reports the Go runtime's allocation and GC activity between two
// MemStats readings taken around the traced phase.
func setRuntime(o *outcome, before, after *runtime.MemStats) {
	o.set("runtime.total_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	o.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	o.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	o.set("runtime.heap_inuse_mb", float64(after.HeapInuse)/(1<<20))
}

// printPhaseBudget prints the per-layer table of the spans under root and
// returns the share of root's interval that named spans cover.
func printPhaseBudget(e *env, rec *recorder, root int, title string) float64 {
	rows, covered, rootS := layerBudget(rec.snapshot(), root)
	printBudget(e.log, title, rows, covered, rootS)
	return covered
}

// finishTrace closes a traced run: it prints the budget of the phase whose
// layers are fully named, records how much of that phase named spans cover
// (the licence to read the table as a budget), and gives every per-layer
// metric the workload did not exercise the value 0, so each traced run emits
// the full list.
func finishTrace(e *env, o *outcome, rec *recorder, budgetRoot int, title string) {
	o.set("trace.covered_frac", printPhaseBudget(e, rec, budgetRoot, title))
	o.set("run.failed_frac", ratio(float64(o.Failed), float64(o.Attempted)))
	for _, d := range perLayer {
		if _, ok := o.Metrics[d.Name]; !ok {
			o.set(d.Name, 0)
		}
	}
}
