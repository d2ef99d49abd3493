package main

import (
	"fmt"
	"time"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// The mirror is the benchmark's own copy of core's per-origin loop
// (core.runOneOrigin): it drives the public bgp API through the same steps,
// on the origins the program itself chose, with a span around every call.
// core.RunCEvents is opaque between its origin and event spans; the mirror
// is how Reset, WarmStart (or the cold flood), Settle and the counter
// read-out get their own numbers without touching program code. Its update
// total is reported against the program's so drift between the two shows.

// mirrorPrefix and originSeedStride repeat core's unexported constants.
const (
	mirrorPrefix     bgp.Prefix = 1
	originSeedStride uint64     = 0x9e3779b97f4a7c15
)

// mirrorTimes is seconds per step, summed over the mirrored origins.
type mirrorTimes struct {
	newS, resetS, warmS, floodS, downS, settleS, upS, collectS float64
	updates                                                    float64
}

func (a *mirrorTimes) add(b mirrorTimes) {
	a.newS += b.newS
	a.resetS += b.resetS
	a.warmS += b.warmS
	a.floodS += b.floodS
	a.downS += b.downS
	a.settleS += b.settleS
	a.upS += b.upS
	a.collectS += b.collectS
	a.updates += b.updates
}

func (a mirrorTimes) runS() float64 { return a.downS + a.upS }

// mirrorSink defeats dead-code elimination of the counter read-out.
var mirrorSink float64

// mirrorCell replays one cell's C-events step by step. origins must be in
// origin-index order (the order core seeds them in).
func mirrorCell(rec *recorder, parent int, trace string, topo *topology.Topology, cfg core.Config, origins []topology.NodeID) (mirrorTimes, error) {
	var mt mirrorTimes
	step := func(name string, acc *float64, fn func()) {
		id := rec.start(parent, trace, name)
		t0 := time.Now()
		fn()
		*acc += time.Since(t0).Seconds()
		rec.end(id)
	}
	var net *bgp.Network
	var err error
	step("bgp.new", &mt.newS, func() { net, err = bgp.New(topo, cfg.BGP) })
	if err != nil {
		return mt, err
	}
	settle := cfg.Settle
	if settle == 0 {
		settle = 2 * cfg.BGP.MRAI
	}
	for idx, origin := range origins {
		step("bgp.reset", &mt.resetS, func() { net.Reset(cfg.BGP.Seed + uint64(idx)*originSeedStride) })
		if cfg.WarmStart {
			step("bgp.warmstart", &mt.warmS, func() { net.WarmStart(origin, mirrorPrefix) })
		} else {
			step("bgp.flood", &mt.floodS, func() {
				net.Originate(origin, mirrorPrefix)
				net.Run()
				net.Settle(settle)
				net.ResetCounters()
			})
		}
		step("bgp.down_run", &mt.downS, func() { net.WithdrawPrefix(origin, mirrorPrefix); net.Run() })
		step("bgp.settle", &mt.settleS, func() { net.Settle(settle) })
		step("bgp.up_run", &mt.upS, func() { net.Originate(origin, mirrorPrefix); net.Run() })
		mt.updates += float64(net.TotalUpdates())
		step("core.collect", &mt.collectS, func() {
			var acc float64
			for id := 0; id < topo.N(); id++ {
				nid := topology.NodeID(id)
				acc += float64(net.RouteChanges(nid))
				rels := net.NeighborRelations(nid)
				for j, c := range net.PerNeighborCounts(nid) {
					acc += float64(c) * float64(rels[j]+2)
				}
			}
			mirrorSink += acc
		})
	}
	return mt, nil
}

// tracedCell runs core.RunCEvents with the metrics hub and a span recorder
// attached, under a benchmark span, and re-parents the program's spans.
type tracedCellResult struct {
	res       *core.Result
	wallS     float64
	spans     []obs.SpanRecord
	origins   []topology.NodeID // in completion order; origin-index order when Parallelism is 1
	eventRunS float64           // Σ DurUS of the program's event spans
}

func tracedCell(rec *recorder, parent int, trace string, topo *topology.Topology, cfg core.Config, m *obs.Metrics) (tracedCellResult, error) {
	var out tracedCellResult
	cfg.Obs = m
	offset, t0 := rec.nowUS(), time.Now()
	cfg.Spans = obs.NewSpanRecorder()
	id := rec.start(parent, trace, "core.run_cevents")
	res, err := core.RunCEvents(topo, cfg)
	rec.end(id)
	out.wallS = time.Since(t0).Seconds()
	if err != nil {
		return out, err
	}
	out.res = res
	out.spans = cfg.Spans.Snapshot()
	rec.importProgramSpans(id, trace, offset, out.spans)
	for _, s := range out.spans {
		switch s.Level {
		case obs.SpanOrigin:
			out.origins = append(out.origins, topology.NodeID(s.Origin))
		case obs.SpanEvent:
			out.eventRunS += s.DurUS / 1e6
		}
	}
	return out, nil
}

// mirrorResult is a mirror's step times beside the program pass(es) it
// mirrored.
type mirrorResult struct {
	times          mirrorTimes
	programRunS    float64 // Σ the program's event spans
	programUpdates float64
	programSpans   []obs.SpanRecord
}

// mirrorBaseline samples how a small cell splits into layers, for the
// workloads whose cells run inside the scheduler: for BASELINE at each size
// it runs the program (one origin worker, so origin spans arrive in seed
// order) and then the mirror over the origins the program named.
func mirrorBaseline(rec *recorder, parent int, seed uint64, sizes []int, cfg core.Config) (mirrorResult, error) {
	var out mirrorResult
	cfg.Parallelism = 1
	for _, n := range sizes {
		trace := cellName(scenario.Baseline.Name, n, seed+uint64(n))
		topo, err := scenario.Baseline.Generate(n, seed+uint64(n))
		if err != nil {
			return out, err
		}
		prog, err := tracedCell(rec, parent, trace, topo, cfg, nil)
		if err != nil {
			return out, fmt.Errorf("mirror sample %s: %w", trace, err)
		}
		mid := rec.start(parent, trace, "benchmark.mirror")
		mt, err := mirrorCell(rec, mid, trace, topo, cfg, prog.origins)
		rec.end(mid)
		if err != nil {
			return out, err
		}
		out.times.add(mt)
		out.programRunS += prog.eventRunS
		out.programUpdates += rowUpdates(prog.res)
		out.programSpans = append(out.programSpans, prog.spans...)
	}
	return out, nil
}
