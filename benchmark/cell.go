package main

import (
	"runtime"
	"strings"

	"bgpchurn/internal/core"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// cell_warm_50k and cell_windowed_50k: one core.RunCEvents call on a BASELINE
// topology grown from cellBaseN to cellN, warm start, compact RIB, one origin
// worker. The warm variant runs the paper's model (LinkDelay 0, inline
// executor); the windowed variant gives every session a 50 ms link delay and
// runs the barrier-windowed executor on min(nproc, 4) shards.

const windowedLinkDelay = 50 * des.Millisecond

func shardCount(workers int) int {
	if workers > 4 {
		return 4
	}
	return workers
}

func cellConfig(e *env, windowed bool) core.Config {
	cfg := core.DefaultConfig(e.seed)
	cfg.Origins = e.sc.cellOrigins
	cfg.WarmStart = true
	cfg.Parallelism = 1
	cfg.BGP.CompactRIB = true
	if windowed {
		cfg.BGP.LinkDelay = windowedLinkDelay
		cfg.BGP.Shards = shardCount(e.workers)
	}
	return cfg
}

// cellSetupTimes is one set-up's seconds per step.
type cellSetupTimes struct {
	generateS, growS, validateS float64
}

// cellSetup is everything before the measured call: Generate the base,
// Grow it to the cell size, Validate, and one untimed warm-up cell. Validate
// runs on the base only: at n=50k it takes over two minutes (it is
// quadratic), which no run could afford; Grow preserves the base and adds
// nodes through the same phases Generate uses.
func cellSetup(e *env, windowed bool, rec *recorder, parent int) (*topology.Topology, cellSetupTimes, error) {
	var st cellSetupTimes
	var base, topo *topology.Topology
	step := func(name string, acc *float64, fn func() error) error {
		id := rec.start(parent, "", name)
		w, _, err := timed(fn)
		rec.end(id)
		*acc += w
		return err
	}
	err := step("topology.generate", &st.generateS, func() (err error) {
		base, err = topology.Generate(scenario.Baseline.Params(e.sc.cellBaseN, e.seed))
		return err
	})
	if err == nil {
		err = step("topology.grow", &st.growS, func() (err error) {
			topo, err = topology.Grow(base, scenario.Baseline.Params(e.sc.cellN, e.seed))
			return err
		})
	}
	if err == nil {
		err = step("topology.validate", &st.validateS, base.Validate)
	}
	if err != nil {
		return nil, st, err
	}
	id := rec.start(parent, "", "benchmark.warmup")
	defer rec.end(id)
	small, err := scenario.Baseline.Generate(e.sc.warmupN, e.seed)
	if err == nil {
		_, err = core.RunCEvents(small, cellConfig(e, windowed))
	}
	return topo, st, err
}

// cellPass is one measured RunCEvents call. Its unit of service is one
// million simulated updates, because the work in a pass depends on which
// origins the seed picks (measured 0.76 M to 1.75 M updates per origin at
// n=50k): wall per pass would compare seeds, not code.
func cellPass(o *outcome, topo *topology.Topology, cfg core.Config) (pass, *core.Result, error) {
	var p pass
	var res *core.Result
	var err error
	p.wallS, p.cpuS, err = timed(func() (err error) {
		res, err = core.RunCEvents(topo, cfg)
		return err
	})
	o.Attempted++
	if err != nil {
		return p, nil, err
	}
	p.updates = rowUpdates(res)
	p.opsMS = []float64{1e3 * p.wallS / (p.updates / 1e6)}
	p.stats, err = statsOf([]resultRow{{scenario.Baseline.Name, topo.N(), res}})
	if res.TotalUpdates <= 0 {
		o.problemf("cell processed no updates")
	}
	return p, res, err
}

func runCellE2E(e *env, windowed bool) (*outcome, error) {
	o := &outcome{}
	var topo *topology.Topology
	setupS, err := repeatSetup(func() (err error) {
		topo, _, err = cellSetup(e, windowed, nil, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := cellConfig(e, windowed)
	passes, err := timedPasses(e, func(int) (pass, error) {
		p, _, err := cellPass(o, topo, cfg)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	peakRSS := obs.PeakRSSBytes()
	checkDeterministic(o, passes)
	o.Stats = passes[0].stats
	// One sample per pass: no percentile beyond the median is supported.
	finishE2E(o, setupS, passes, 50, peakRSS)
	return o, nil
}

func runCellTrace(e *env, windowed bool, rec *recorder) (*outcome, error) {
	o := &outcome{}
	name := "cell_warm_50k"
	if windowed {
		name = "cell_windowed_50k"
	}
	root := rec.start(0, "", "benchmark.run")
	m := obs.New()
	topology.SetObsProbes(m.NewTopoProbes())
	defer topology.SetObsProbes(nil)
	sid := rec.start(root, "", "benchmark.setup")
	topo, st, err := cellSetup(e, windowed, rec, sid)
	rec.end(sid)
	if err != nil {
		return nil, err
	}
	topoSnap := m.Snapshot() // generation phases of the set-up
	cfg := cellConfig(e, windowed)
	trace := cellName(scenario.Baseline.Name, topo.N(), e.seed)

	uid := rec.start(root, "", "benchmark.untraced_pass")
	ref, _, err := cellPass(o, topo, cfg)
	rec.end(uid)
	if err != nil {
		return nil, err
	}

	// Traced program pass: metrics hub and span recorder attached.
	m = obs.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tid := rec.start(root, "", "benchmark.traced_pass")
	cpu0 := cpuSeconds()
	prog, err := tracedCell(rec, tid, trace, topo, cfg, m)
	cpuS := cpuSeconds() - cpu0
	rec.end(tid)
	runtime.ReadMemStats(&after)
	o.Attempted++
	if err != nil {
		return nil, err
	}
	rows := []resultRow{{scenario.Baseline.Name, topo.N(), prog.res}}
	if o.Stats, err = statsOf(rows); err != nil {
		return nil, err
	}
	if o.Stats != ref.stats {
		o.problemf("traced pass simulated statistics differ from the untraced pass: %+v vs %+v", o.Stats, ref.stats)
	}
	snap := m.Snapshot()
	for k, v := range topoSnap { // topology counters come from the set-up's hub
		if strings.HasPrefix(k, "bgpchurn_topo_") {
			snap[k] = v
		}
	}

	// Mirror pass: the same origins, stepped by hand.
	mid := rec.start(root, "", "benchmark.mirror_pass")
	mt, err := mirrorCell(rec, mid, trace, topo, cfg, prog.origins)
	rec.end(mid)
	if err != nil {
		return nil, err
	}

	// The windowed executor must give the same totals on one shard, and the
	// serial pass prices what the shards buy.
	if windowed {
		serial := cfg
		serial.BGP.Shards = 1
		xid := rec.start(root, "", "benchmark.serial_pass")
		sp, _, err := cellPass(o, topo, serial)
		rec.end(xid)
		if err != nil {
			return nil, err
		}
		if sp.stats != ref.stats {
			o.problemf("Shards=1 and Shards=%d disagree: %+v vs %+v", cfg.BGP.Shards, sp.stats, ref.stats)
		}
		o.set("shard.serial_wall_s", sp.wallS)
		o.set("shard.speedup", ratio(sp.wallS, ref.wallS))
	}

	pid := rec.start(root, "", "benchmark.layer_probes")
	if err := probeJournal(e, o, rec, pid, rows); err != nil {
		return nil, err
	}
	if err := probeCSV(o, rec, pid, rows); err != nil {
		return nil, err
	}
	setCounters(o, snap)
	setEventRun(o, prog.spans)
	probeDES(e, o, rec, pid, o.Metrics["des.ring_push_frac"].Value)
	rec.end(pid)
	rec.end(root)

	o.set("run.wall_s", prog.wallS)
	o.set("run.cpu_s", cpuS)
	o.set("run.cells_per_s", ratio(1, prog.wallS))
	o.set("topology.generate_s", st.generateS)
	o.set("topology.grow_s", st.growS)
	o.set("topology.validate_s", st.validateS)
	setMirror(o, mirrorResult{times: mt, programRunS: prog.eventRunS, programUpdates: rowUpdates(prog.res)})
	setOriginSpans(o, prog.spans)
	o.set("obs.trace_overhead_frac", ratio(prog.wallS, ref.wallS)-1)
	setRuntime(o, &before, &after)
	printPhaseBudget(e, rec, tid, name+" traced program pass")
	finishTrace(e, o, rec, mid, name+" mirror pass")
	return o, nil
}
