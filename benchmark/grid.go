package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// grid_paper: the paper's own workload, many small cells. Every scenario is
// swept over the sizes NO-WRATE, BASELINE is re-requested beside each other
// scenario the way the figures ask for it (cache hits), and BASELINE is swept
// once more under WRATE. Cold start, classic RIB, Parallelism 0, journal on.

// gridTail is the percentile 75 computed cells per pass support.
const gridTail = 85

// gridRequests builds the figure grid for one seed.
func gridRequests(e *env, m *obs.Metrics) []core.GridRequest {
	ev := core.DefaultConfig(e.seed)
	ev.Origins = e.sc.gridOrigins
	ev.Obs = m
	wrate := ev
	wrate.BGP = bgp.WRATEConfig(e.seed)
	var reqs []core.GridRequest
	add := func(sc scenario.Scenario, ev core.Config) {
		reqs = append(reqs, core.GridRequest{Scenario: sc, Sizes: e.sc.gridSizes, TopologySeed: e.seed, Event: ev})
	}
	for _, sc := range scenario.All() {
		add(sc, ev)
		if sc.Name != scenario.Baseline.Name {
			add(scenario.Baseline, ev)
		}
	}
	add(scenario.Baseline, wrate)
	return reqs
}

// gridExpect is how many cells a pass must compute and serve from cache.
func gridExpect(e *env) (computed, hits int) {
	k, sizes := len(scenario.All()), len(e.sc.gridSizes)
	return (k + 1) * sizes, (k - 1) * sizes
}

// gridSched is one pass's scheduler with its journal.
type gridSched struct {
	dir   string
	sched *core.Scheduler
	j     *core.Journal
}

func openGridSched(e *env, m *obs.Metrics) (*gridSched, error) {
	dir, err := e.tmpDir("grid")
	if err != nil {
		return nil, err
	}
	j, err := core.OpenJournal(filepath.Join(dir, "cells.journal"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := core.NewScheduler(e.workers)
	s.SetJournal(j)
	if m != nil {
		s.SetObs(m)
	}
	return &gridSched{dir: dir, sched: s, j: j}, nil
}

func (g *gridSched) close() error {
	err := g.j.Close()
	if jerr := g.j.Err(); err == nil {
		err = jerr
	}
	os.RemoveAll(g.dir)
	return err
}

// gridSetup is everything before the measured call: scheduler and journal
// open, plus one untimed warm-up cell so lazy set-up is paid before timing.
func gridSetup(e *env) error {
	g, err := openGridSched(e, nil)
	if err != nil {
		return err
	}
	ev := core.DefaultConfig(e.seed)
	ev.Origins = e.sc.gridOrigins
	_, err = g.sched.RunSweep(context.Background(), scenario.Baseline, core.SweepConfig{
		Sizes: []int{e.sc.warmupN}, TopologySeed: e.seed, Event: ev,
	})
	if cerr := g.close(); err == nil {
		err = cerr
	}
	return err
}

// gridPass runs the grid once on a fresh scheduler and checks its shape.
// hook, when non-nil, instruments the scheduler before the run (traced pass).
func gridPass(e *env, o *outcome, m *obs.Metrics, hook func(*core.Scheduler)) (pass, []resultRow, core.CacheStats, error) {
	var p pass
	g, err := openGridSched(e, m)
	if err != nil {
		return p, nil, core.CacheStats{}, err
	}
	var mu sync.Mutex
	bad := 0
	g.sched.SubscribeCells(func(cs core.CellStatus) {
		mu.Lock()
		defer mu.Unlock()
		switch cs.State {
		case core.CellDone:
			p.opsMS = append(p.opsMS, 1e3*cs.Elapsed.Seconds())
		case core.CellFailed, core.CellQuarantined, core.CellCancelled:
			bad++
		}
	})
	if hook != nil {
		hook(g.sched)
	}
	reqs := gridRequests(e, m)
	var sweeps []*core.SweepResult
	p.wallS, p.cpuS, err = timed(func() error {
		var err error
		sweeps, err = g.sched.RunGrid(context.Background(), reqs)
		return err
	})
	stats := g.sched.CacheStats()
	if cerr := g.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, nil, stats, err
	}

	// Distinct results in request order: the figure grid's table.
	var rows []resultRow
	seen := map[*core.Result]bool{}
	for i, sw := range sweeps {
		for _, pt := range sw.Points {
			if !seen[pt.R] {
				seen[pt.R] = true
				name := sw.Scenario
				if reqs[i].Event.BGP.RateLimitWithdrawals {
					name += "/WRATE"
				}
				rows = append(rows, resultRow{name, pt.N, pt.R})
				p.updates += rowUpdates(pt.R)
			}
		}
	}
	if p.stats, err = statsOf(rows); err != nil {
		return p, nil, stats, err
	}
	wantComputed, wantHits := gridExpect(e)
	o.Attempted += wantComputed + wantHits
	o.Failed += bad
	if stats.Misses != wantComputed || stats.Hits != wantHits || len(rows) != wantComputed {
		o.problemf("grid computed %d cells with %d cache hits and %d distinct results, want %d / %d / %d",
			stats.Misses, stats.Hits, len(rows), wantComputed, wantHits, wantComputed)
	}
	return p, rows, stats, nil
}

func runGridE2E(e *env) (*outcome, error) {
	o := &outcome{}
	setupS, err := repeatSetup(func() error { return gridSetup(e) })
	if err != nil {
		return nil, err
	}
	passes, err := timedPasses(e, func(int) (pass, error) {
		p, _, _, err := gridPass(e, o, nil, nil)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	peakRSS := obs.PeakRSSBytes()
	checkDeterministic(o, passes)
	o.Stats = passes[0].stats
	finishE2E(o, setupS, passes, gridTail, peakRSS)
	return o, nil
}

// gridTracer wraps the scheduler's compute seams with benchmark spans: a
// core.cell span per computed cell (CellStart to CellDone), and inside it
// scenario.params, topology.generate and core.run_cevents with the program's
// own origin and event spans below. What is left of a cell span is the
// scheduler's own work: retry wrapper, journal append, progress fan-out.
type gridTracer struct {
	rec  *recorder
	root int

	mu        sync.Mutex
	byKey     map[core.CellKey]int // open cell span per key
	waiting   map[string][]int     // cell spans whose generate call has not come yet
	topoOwner map[*topology.Topology]int
	progSpans []obs.SpanRecord
	paramsS   float64
	generateS float64
	cellS     float64 // Σ computed-cell seconds, for worker_busy_frac
}

func cellName(scName string, n int, seed uint64) string {
	return fmt.Sprintf("cell/%s/%d/%d", scName, n, seed)
}

func (t *gridTracer) onCell(cs core.CellStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	name := cellName(cs.Scenario, cs.N, cs.Seed)
	switch cs.State {
	case core.CellStart:
		id := t.rec.start(t.root, name, "core.cell")
		t.byKey[cs.Key] = id
		t.waiting[name] = append(t.waiting[name], id)
	case core.CellDone, core.CellFailed, core.CellQuarantined, core.CellCancelled:
		t.rec.end(t.byKey[cs.Key])
		delete(t.byKey, cs.Key)
		t.cellS += cs.Elapsed.Seconds()
	}
}

func (t *gridTracer) generate(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
	name := cellName(sc.Name, n, seed)
	t.mu.Lock()
	parent := t.root
	if w := t.waiting[name]; len(w) > 0 {
		parent, t.waiting[name] = w[0], w[1:]
	}
	t.mu.Unlock()

	id := t.rec.start(parent, name, "scenario.params")
	t0 := time.Now()
	params := sc.Params(n, seed)
	paramsS := time.Since(t0).Seconds()
	t.rec.end(id)

	id = t.rec.start(parent, name, "topology.generate")
	t0 = time.Now()
	topo, err := topology.Generate(params)
	genS := time.Since(t0).Seconds()
	t.rec.end(id)

	t.mu.Lock()
	t.paramsS += paramsS
	t.generateS += genS
	if topo != nil {
		t.topoOwner[topo] = parent
	}
	t.mu.Unlock()
	return topo, err
}

func (t *gridTracer) run(ctx context.Context, topo *topology.Topology, cfg core.Config) (*core.Result, error) {
	t.mu.Lock()
	parent, ok := t.topoOwner[topo]
	delete(t.topoOwner, topo)
	t.mu.Unlock()
	if !ok {
		parent = t.root
	}
	offset := t.rec.nowUS()
	cfg.Spans = obs.NewSpanRecorder()
	trace := fmt.Sprintf("cell/%d/%d", topo.N(), topo.Seed)
	id := t.rec.start(parent, trace, "core.run_cevents")
	res, err := core.RunCEventsContext(ctx, topo, cfg)
	t.rec.end(id)
	spans := cfg.Spans.Snapshot()
	t.rec.importProgramSpans(id, trace, offset, spans)
	t.mu.Lock()
	t.progSpans = append(t.progSpans, spans...)
	t.mu.Unlock()
	return res, err
}

func runGridTrace(e *env, rec *recorder) (*outcome, error) {
	o := &outcome{}
	root := rec.start(0, "", "benchmark.run")
	sid := rec.start(root, "", "benchmark.setup")
	if err := gridSetup(e); err != nil {
		return nil, err
	}
	rec.end(sid)

	// Untraced reference pass, then the traced pass on the same inputs.
	uid := rec.start(root, "", "benchmark.untraced_pass")
	ref, _, _, err := gridPass(e, o, nil, nil)
	rec.end(uid)
	if err != nil {
		return nil, err
	}

	m := obs.New()
	topology.SetObsProbes(m.NewTopoProbes())
	defer topology.SetObsProbes(nil)
	tid := rec.start(root, "", "benchmark.traced_pass")
	tr := &gridTracer{rec: rec, root: tid, byKey: map[core.CellKey]int{}, waiting: map[string][]int{}, topoOwner: map[*topology.Topology]int{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, rows, cstats, err := gridPass(e, o, m, func(s *core.Scheduler) {
		s.SubscribeCells(tr.onCell)
		s.SetCompute(tr.generate, tr.run)
	})
	runtime.ReadMemStats(&after)
	rec.end(tid)
	if err != nil {
		return nil, err
	}
	if p.stats != ref.stats {
		o.problemf("traced pass simulated statistics differ from the untraced pass: %+v vs %+v", p.stats, ref.stats)
	}
	o.Stats = p.stats
	snap := m.Snapshot()

	// Mirror: BASELINE at every grid size, a few origins each, stepping the
	// engine by hand to split a cold cell into new / reset / flood / runs.
	mid := rec.start(root, "", "benchmark.mirror_sample")
	ev := core.DefaultConfig(e.seed)
	ev.Origins = e.sc.mirrorOrigins
	mr, err := mirrorBaseline(rec, mid, e.seed, e.sc.gridSizes, ev)
	rec.end(mid)
	if err != nil {
		return nil, err
	}

	pid := rec.start(root, "", "benchmark.layer_probes")
	if err := probeJournal(e, o, rec, pid, rows); err != nil {
		return nil, err
	}
	if err := probeCSV(o, rec, pid, rows); err != nil {
		return nil, err
	}
	setCounters(o, snap)
	setEventRun(o, tr.progSpans)
	probeDES(e, o, rec, pid, o.Metrics["des.ring_push_frac"].Value)
	rec.end(pid)
	rec.end(root)

	o.set("run.wall_s", p.wallS)
	o.set("run.cpu_s", p.cpuS)
	o.set("run.cells_per_s", ratio(float64(cstats.Misses), p.wallS))
	o.set("topology.generate_s", tr.generateS)
	o.set("scenario.params_s", tr.paramsS)
	setMirror(o, mr)
	setOriginSpans(o, tr.progSpans)
	o.set("core.sched.cells_computed", float64(cstats.Misses))
	o.set("core.sched.cache_hits", float64(cstats.Hits))
	o.set("core.sched.cache_hit_frac", ratio(float64(cstats.Hits), float64(cstats.Hits+cstats.Misses)))
	o.set("core.sched.worker_busy_frac", ratio(tr.cellS, p.wallS*float64(e.workers)))
	o.set("obs.trace_overhead_frac", ratio(p.wallS, ref.wallS)-1)
	setRuntime(o, &before, &after)
	finishTrace(e, o, rec, tid, "grid_paper traced pass")
	return o, nil
}
