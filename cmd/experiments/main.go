// Command experiments regenerates the paper's evaluation — Table 1, the
// §3 topology properties and Figs. 1 and 4–12 — as printed tables, ASCII
// trend plots, and optional CSV files (one per table).
//
// Usage:
//
//	experiments -fig all -fast          # reduced sweep, seconds
//	experiments -fig 4,6,12             # selected figures
//	experiments -fig all -out results/  # full paper-scale sweep + CSVs
//	experiments -fig table1,topo -scenario DENSE-CORE
//	experiments -fig cell -scenario BASELINE -n 2000
//	experiments -fast -parallel 8       # at most 8 grid cells at once
//	experiments -fast -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Besides the figures, three ids cover the rest of the paper for one
// -scenario: table1 (realized Table 1 parameters at each figure size), topo
// (§3 structural properties of the topology each grid cell runs on, plus the
// degree CCDF at the largest size) and cell (one grid cell at size -n in
// full: per-type U with its relation split, the Eq.-1 factors, per-node
// spread, path exploration and convergence, under NO-WRATE and WRATE).
//
// The profiling flags write standard runtime/pprof profiles of the whole
// run (inspect with `go tool pprof`); see EXPERIMENTS.md, "Profiling".
//
// Full mode uses the paper's parameters (n = 1000..10000, 100 C-event
// originators per point) and takes minutes (about 3 on 2 vCPU); -fast cuts both.
//
// Each entry of the figures table declares the sweeps its figure reads. The
// sweeps of the selected figures run as one scenario×size grid on the
// experiment scheduler's worker pool (-parallel bounds concurrent cells,
// 0 = GOMAXPROCS; each cell's origin workers share the process-wide core
// budget, so -parallel never multiplies the cores in use), each unique sweep
// requested once, and every figure renders from that grid's results — Figs.
// 4–12 all read the one Baseline sweep. Output is byte-identical to a
// sequential run on the same seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"bgpchurn"
	"bgpchurn/internal/core"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
	"bgpchurn/internal/sigtrap"
	"bgpchurn/internal/stats"
)

// Exit codes. Distinct codes let wrappers (CI, Makefiles) tell an
// interrupted run — resumable with -resume — from a genuine failure.
const (
	exitOK          = 0   // all selected figures rendered
	exitError       = 1   // hard failure (bad config, I/O error, permanent cell error)
	exitUsage       = 2   // flag parsing failed
	exitQuarantined = 3   // run completed but one or more cells were quarantined
	exitInterrupted = 130 // cancelled by SIGINT/SIGTERM (128 + SIGINT)
)

func main() {
	ctx, stop := sigtrap.Context("experiments", os.Stderr)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// figure is one entry of the -fig selection and the one declaration of that
// figure: the sweeps it reads and the function that renders it from their
// results, handed over in declaration order.
type figure struct {
	id     string
	des    string
	sweeps []sweep
	render func(r *runner, sws []*bgpchurn.SweepResult) error
}

// sweep names one sweep a figure reads: a scenario's events of one kind
// under NO-WRATE or WRATE over the figure sizes or, for the cell id (cell
// set), -scenario at the one size -n or, for the ext id (ext set), the
// scenario at the one extension size.
type sweep struct {
	sc    bgpchurn.Scenario
	wrate bool
	kind  bgpchurn.EventKind
	cell  bool
	ext   bool
}

// noWRATE declares a NO-WRATE sweep of each scenario over the figure sizes.
func noWRATE(scs ...bgpchurn.Scenario) []sweep {
	out := make([]sweep, len(scs))
	for i, sc := range scs {
		out[i] = sweep{sc: sc}
	}
	return out
}

// figures lists every figure the binary can regenerate, in rendering order.
var figures = []figure{
	{"table1", "Table 1: realized generator parameters", nil, (*runner).table1},
	{"topo", "§3: structural properties and degree CCDF", nil, (*runner).topo},
	{"1", "churn growth at a monitor (Mann-Kendall)", nil, (*runner).fig1},
	{"4", "U(X) per node type vs n", noWRATE(bgpchurn.Baseline), (*runner).fig4},
	{"5", "per-relation split at T and M nodes", noWRATE(bgpchurn.Baseline), (*runner).fig5},
	{"6", "relative increase of Uc(T), Up(T), Ud(M)", noWRATE(bgpchurn.Baseline), (*runner).fig6},
	{"7", "m/e/q factor growth", noWRATE(bgpchurn.Baseline), (*runner).fig7},
	{"8", "AS population mix deviations",
		noWRATE(bgpchurn.RichMiddle, bgpchurn.Baseline, bgpchurn.StaticMiddle, bgpchurn.TransitClique, bgpchurn.NoMiddle), (*runner).fig8},
	{"9", "multihoming degree deviations",
		noWRATE(bgpchurn.DenseCore, bgpchurn.DenseEdge, bgpchurn.Baseline, bgpchurn.Tree, bgpchurn.ConstantMHD), (*runner).fig9},
	{"10", "peering deviations",
		noWRATE(bgpchurn.Baseline, bgpchurn.NoPeering, bgpchurn.StrongCorePeering, bgpchurn.StrongEdgePeering), (*runner).fig10},
	{"11", "provider preference deviations",
		noWRATE(bgpchurn.Baseline, bgpchurn.PreferMiddle, bgpchurn.PreferTop), (*runner).fig11},
	{"12", "WRATE vs NO-WRATE", []sweep{{sc: bgpchurn.Baseline}, {sc: bgpchurn.Baseline, wrate: true}}, (*runner).fig12},
	{"cell", "one grid cell in full: Eq.-1 factors and convergence", []sweep{{cell: true}, {cell: true, wrate: true}}, (*runner).cell},
	{"ext", "extensions: L-events, exploration, burstiness", []sweep{
		{sc: bgpchurn.Baseline, ext: true}, {sc: bgpchurn.Baseline, ext: true, wrate: true},
		{sc: bgpchurn.Baseline, ext: true, kind: bgpchurn.LinkEventKind},
		{sc: bgpchurn.Baseline, ext: true, kind: bgpchurn.LinkEventKind, wrate: true},
	}, (*runner).extensions},
}

// selectFigures parses the -fig value, "all" or a comma-separated list of
// figure ids, into the selected figures in rendering order. An unknown id or
// an empty selection is an error naming the valid ids — a typo must not turn
// into a run that renders nothing.
func selectFigures(spec string) ([]figure, error) {
	if spec == "all" {
		return figures, nil
	}
	valid := make([]string, len(figures))
	for i, f := range figures {
		valid[i] = f.id
	}
	ids := strings.Split(spec, ",")
	for i, id := range ids {
		if ids[i] = strings.TrimSpace(id); !slices.Contains(valid, ids[i]) {
			return nil, fmt.Errorf("-fig: unknown figure %q (valid: %s, or all)", ids[i], strings.Join(valid, ","))
		}
	}
	var sel []figure
	for _, f := range figures {
		if slices.Contains(ids, f.id) {
			sel = append(sel, f)
		}
	}
	return sel, nil
}

// run is main minus process plumbing: parse flags, execute, return the exit
// code. ctx cancellation plays the role of the first termination signal.
// Cleanup happens in defers, so every exit path flushes profiles, the
// journal, and the obs server.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs        = fs.String("fig", "all", "comma-separated figure ids (table1,topo,1,4,...,12,cell,ext) or 'all'")
		scName      = fs.String("scenario", "BASELINE", "growth scenario of the table1, topo and cell ids")
		cellN       = fs.Int("n", 1000, "network size of the cell id")
		fast        = fs.Bool("fast", false, "reduced sizes and origins (for a quick look)")
		outDir      = fs.String("out", "", "directory for CSV output (created if missing)")
		seed        = fs.Uint64("seed", 1, "master seed")
		origins     = fs.Int("origins", 0, "override the number of C-event originators")
		parallel    = fs.Int("parallel", 0, "concurrent grid cells (0 = GOMAXPROCS); their origin workers share GOMAXPROCS cores")
		warm        = fs.Bool("warmstart", false, "install the converged pre-event state directly instead of flooding it through the simulator (faster; statistically equivalent but not byte-identical to the default)")
		cpuprof     = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprof     = fs.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
		obsAddr     = fs.String("obs", "", "serve live metrics on this address (e.g. :8080; :0 picks a free port): /metrics, /debug/vars, /debug/pprof/")
		manifest    = fs.String("manifest", "results/manifest.json", "write the run manifest (config, seeds, timings, counters) to this file; empty disables")
		logFormat   = fs.String("log-format", "text", "cell progress log format: text or json")
		journalPath = fs.String("journal", "results/cells.journal", "cell checkpoint journal (JSONL); empty disables checkpointing")
		resume      = fs.Bool("resume", false, "replay the cell journal into the scheduler cache before running, so only missing cells are recomputed")
		retries     = fs.Int("retries", 0, "recompute a cell up to this many times after a transient fault (panic, timeout) before quarantining it")
		cellTimeout = fs.Duration("cell-timeout", 0, "per-cell wall-clock deadline (0 = none); a timed-out cell counts as a transient fault")
		linkDelay   = fs.Duration("link-delay", 0, "per-session propagation latency (0 = the paper's instant-admission model); positive values select the windowed executor, which runs a simulation on the idle cores")
		spansPath   = fs.String("spans", "", "write sweep/cell/origin/event causal spans as JSONL to this file (enables root-cause tracing; results stay byte-identical)")
		chromePath  = fs.String("chrome-trace", "", "write the causal spans as Chrome trace_event JSON to this file (open in chrome://tracing or Perfetto); implies span recording")
		metricsOut  = fs.String("metrics-out", "", "write a one-shot Prometheus-text metrics snapshot to this file at exit, for runs that never start the -obs server")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return exitError
	}
	sel, err := selectFigures(*figs)
	if err != nil {
		return fail(err)
	}
	// An unknown scenario, an impossible size, a negative count or
	// duration or an unknown log format is rejected before any file is
	// created, as is a protocol configuration no cell can run (e.g. a
	// negative -link-delay).
	sc, err := bgpchurn.ScenarioByName(*scName)
	if err != nil {
		return fail(err)
	}
	for _, c := range []struct {
		flag, must string
		bad        bool
	}{
		{"n", "positive", *cellN <= 0}, {"origins", "non-negative", *origins < 0}, {"parallel", "non-negative", *parallel < 0},
		{"retries", "non-negative", *retries < 0}, {"cell-timeout", "non-negative", *cellTimeout < 0},
	} {
		if c.bad {
			return fail(fmt.Errorf("-%s must be %s, got %s", c.flag, c.must, fs.Lookup(c.flag).Value))
		}
	}
	r := &runner{
		scenario:    sc,
		n:           *cellN,
		seed:        *seed,
		fast:        *fast,
		outDir:      *outDir,
		origins:     *origins,
		parallel:    *parallel,
		warm:        *warm,
		cellTimeout: *cellTimeout,
		linkDelay:   *linkDelay,
		sched:       bgpchurn.NewScheduler(*parallel),
		stdout:      stdout,
		metrics:     bgpchurn.NewObsMetrics(),
	}
	for _, wrate := range []bool{false, true} {
		cfg := r.experiment(wrate)
		if err := cfg.BGP.Validate(); err != nil {
			return fail(err)
		}
	}
	logCell, err := report.NewCellLogger(stdout, *logFormat)
	if err != nil {
		return fail(err)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(stderr, "experiments: heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments: heap profile:", err)
			}
		}()
	}

	// Graceful shutdown: cancelling ctx (the first SIGINT/SIGTERM) stops
	// new cells, in-flight cells drain, the journal and manifest are
	// flushed, and the run exits with exitInterrupted.
	r.ctx = ctx
	r.sched.SetObs(r.metrics)
	r.sched.SetRetryPolicy(*retries, 0)
	bgpchurn.InstrumentTopologyGeneration(r.metrics)
	if *spansPath != "" || *chromePath != "" {
		r.spans = bgpchurn.NewSpanRecorder()
	}
	if *obsAddr != "" {
		srv, err := bgpchurn.ServeObs(*obsAddr, r.metrics)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		// Cell status and rolling attribution stream to /progress through the
		// scheduler's shared feed (the same code churnd runs); spans, when
		// recorded, stream as they land.
		progress := srv.Progress()
		r.sched.PublishProgress(progress)
		if r.spans != nil {
			r.spans.OnSpan(func(s bgpchurn.SpanRecord) { progress.Publish("span", s) })
		}
		fmt.Fprintf(stdout, "obs: serving /metrics, /debug/vars, /debug/pprof/, /progress on http://%s\n", srv.Addr())
	}
	if *journalPath != "" {
		seeded, torn, err := r.sched.AttachJournal(*journalPath, *resume)
		if err != nil {
			return fail(err)
		}
		defer r.sched.Journal().Close()
		if *resume {
			fmt.Fprintf(stdout, "resume: seeded %d cells from %s\n", seeded, *journalPath)
			if torn {
				fmt.Fprintf(stdout, "resume: dropped a torn final journal line (crash mid-append); that cell will be recomputed\n")
			}
		}
	}
	r.sched.SubscribeCells(func(cs bgpchurn.CellStatus) {
		r.recordCell(cs)
		logCell(cs.Record())
	})
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	ran, skipped, runErr := r.runFigures(sel, stderr)

	// Epilogue: summary, quarantine report, spans, journal and manifest all
	// flush regardless of how the run ended, so an interrupted run leaves a
	// complete checkpoint behind for -resume.
	st := r.sched.CacheStats()
	fmt.Fprintf(stdout, "done in %v (grid cells computed: %d, cache hits: %d, resumed: %d, retries: %d, quarantined: %d, cancelled: %d)\n",
		time.Since(start).Round(time.Second), st.Misses, st.Hits, st.Resumed, st.Retries, st.Quarantined, st.Cancelled)
	quarantined := r.sched.Quarantined()
	for _, q := range quarantined {
		fmt.Fprintf(stderr, "experiments: quarantined: %v\n", q)
	}
	if len(skipped) > 0 {
		fmt.Fprintf(stderr, "experiments: figures skipped due to quarantined cells: %s\n", strings.Join(skipped, ","))
	}
	if r.spans != nil {
		if *spansPath != "" {
			if err := writeFileWith(*spansPath, r.spans.WriteJSONL); err != nil && runErr == nil {
				runErr = err
			} else if err == nil {
				fmt.Fprintf(stdout, "spans: %s (%d spans)\n", *spansPath, r.spans.Len())
			}
		}
		if *chromePath != "" {
			if err := writeFileWith(*chromePath, r.spans.WriteChromeTrace); err != nil && runErr == nil {
				runErr = err
			} else if err == nil {
				fmt.Fprintf(stdout, "chrome-trace: %s\n", *chromePath)
			}
		}
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, r.metrics.WritePrometheus); err != nil && runErr == nil {
			runErr = err
		} else if err == nil {
			fmt.Fprintf(stdout, "metrics: %s\n", *metricsOut)
		}
	}
	if j := r.sched.Journal(); j != nil {
		if err := j.Err(); err != nil {
			fmt.Fprintf(stderr, "experiments: journal incomplete (results are unaffected): %v\n", err)
		} else if j.Appended() > 0 {
			fmt.Fprintf(stdout, "journal: %s (%d cells checkpointed)\n", j.Path(), j.Appended())
		}
	}
	if *manifest != "" {
		cfgMap := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { cfgMap[f.Name] = f.Value.String() })
		if err := r.writeManifest(*manifest, cfgMap, ran, time.Since(start)); err != nil && runErr == nil {
			runErr = err
		} else if err == nil {
			fmt.Fprintf(stdout, "manifest: %s\n", *manifest)
		}
	}

	switch {
	case runErr != nil:
		return fail(runErr)
	case r.interrupted:
		fmt.Fprintln(stderr, "experiments: interrupted; rerun with -resume to finish from the journal")
		return exitInterrupted
	case len(quarantined) > 0 || len(skipped) > 0:
		return exitQuarantined
	}
	return exitOK
}

// writeFileWith creates path and streams write into it, closing on every
// path.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type runner struct {
	// ctx is the run's cancellation context (signal-driven in the binary).
	ctx context.Context
	// scenario and n select what table1, topo and cell describe (-scenario,
	// -n).
	scenario bgpchurn.Scenario
	n        int
	seed     uint64
	fast     bool
	outDir   string
	origins  int
	parallel int
	// warm enables warm-start convergence (Experiment.WarmStart).
	warm bool
	// cellTimeout is the per-cell deadline (-cell-timeout; 0 = none).
	cellTimeout time.Duration
	// linkDelay selects the windowed executor (-link-delay).
	linkDelay time.Duration
	// interrupted records that the run was cancelled by a signal, for the
	// manifest.
	interrupted bool
	// sched runs the run's one grid: cells execute on its worker pool, each
	// unique cell once, and a -resume run's journaled cells come from its
	// cache.
	sched *bgpchurn.Scheduler
	// stdout receives tables and plots (os.Stdout in the binary; a buffer
	// or io.Discard in tests).
	stdout io.Writer
	// metrics is the run's instrumentation hub, attached to the scheduler,
	// every worker network, and topology generation.
	metrics *bgpchurn.ObsMetrics
	// spans, when non-nil, collects the sweep→cell→origin→event causal span
	// hierarchy (-spans / -chrome-trace flags).
	spans *bgpchurn.SpanRecorder
	// cells accumulates manifest entries, one record per scheduler progress
	// event except "start". Appends happen inside the serialized
	// SubscribeCells callback.
	cells []bgpchurn.CellTiming
}

// recordCell stores one scheduler progress event's record for the run
// manifest; start events have none.
func (r *runner) recordCell(cs bgpchurn.CellStatus) {
	if cs.State != bgpchurn.CellStart {
		r.cells = append(r.cells, cs.Record())
	}
}

// writeManifest assembles and writes the run manifest: provenance, the
// effective configuration, per-cell timings, the scheduler's cache traffic
// and the final metric snapshot.
func (r *runner) writeManifest(path string, config map[string]string, figures []string, wall time.Duration) error {
	st := r.sched.CacheStats()
	mf := &bgpchurn.Manifest{
		SchemaVersion: obs.ManifestSchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GitRevision:   bgpchurn.GitRevision(),
		Command:       os.Args,
		Config:        config,
		Seed:          r.seed,
		Figures:       figures,
		Cells:         r.cells,
		Cache: bgpchurn.ManifestCacheCounts{
			Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
			Resumed: st.Resumed, Retries: st.Retries,
			Quarantined: st.Quarantined, Cancelled: st.Cancelled,
		},
		Outcomes:    cellOutcomes(r.cells),
		Interrupted: r.interrupted,
		WallSeconds: wall.Seconds(),
	}
	if r.cells == nil {
		mf.Cells = []bgpchurn.CellTiming{}
	}
	if j := r.sched.Journal(); j != nil {
		mf.Journal = j.Path()
		mf.JournalCells = j.Appended()
	}
	if r.metrics != nil {
		mf.Counters = r.metrics.Snapshot()
	}
	return mf.WriteFile(path)
}

// cellOutcomes folds per-cell progress events into final outcome counts.
// "retried" events are intermediate — the cell's final event carries its
// attempt count — so a cell that succeeded after retries counts once, as
// "retried", and a first-try success counts as "ok".
func cellOutcomes(cells []bgpchurn.CellTiming) map[string]int {
	if len(cells) == 0 {
		return nil
	}
	out := map[string]int{}
	for _, c := range cells {
		switch c.State {
		case "retried":
			// Intermediate event, not an outcome.
		case "done":
			if c.Attempt > 1 {
				out["retried"]++
			} else {
				out["ok"]++
			}
		default:
			out[c.State]++
		}
	}
	return out
}

// request resolves s into the grid request that computes it.
func (r *runner) request(s sweep) bgpchurn.GridRequest {
	req := bgpchurn.GridRequest{Scenario: s.sc, Sizes: r.sizes(), TopologySeed: r.seed, Event: r.experiment(s.wrate)}
	req.Event.Kind = s.kind
	switch {
	case s.cell:
		req.Scenario, req.Sizes = r.scenario, []int{r.n}
	case s.ext:
		req.Sizes = []int{r.extN()}
	}
	return req
}

// extN is the ext id's one size: n = 2000, or 1000 with -fast.
func (r *runner) extN() int {
	if r.fast {
		return 1000
	}
	return 2000
}

// sweepKey identifies a grid request among the run's sweeps: every other
// input is the same for all of them.
func sweepKey(req bgpchurn.GridRequest) string {
	return fmt.Sprint(req.Scenario.Name, req.Event.BGP.RateLimitWithdrawals, req.Event.Kind, req.Sizes)
}

// grid computes every sweep the selected figures read as one parallel
// scenario×size grid, each unique sweep requested once, and returns the
// results by sweepKey. Quarantined cells do not stop the grid: the sweeps
// that lost them lack those points.
func (r *runner) grid(sel []figure) (map[string]*bgpchurn.SweepResult, error) {
	seen := map[string]bool{}
	var reqs []bgpchurn.GridRequest
	cells := 0
	for _, f := range sel {
		for _, s := range f.sweeps {
			req := r.request(s)
			if k := sweepKey(req); !seen[k] {
				seen[k] = true
				reqs = append(reqs, req)
				cells += len(req.Sizes)
			}
		}
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	// Fix the request (and thus job) order: by scenario, NO-WRATE first.
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].Scenario.Name != reqs[j].Scenario.Name {
			return reqs[i].Scenario.Name < reqs[j].Scenario.Name
		}
		return !reqs[i].Event.BGP.RateLimitWithdrawals && reqs[j].Event.BGP.RateLimitWithdrawals
	})
	fmt.Fprintf(r.stdout, "scheduling %d sweeps (%d grid cells, parallelism %d)...\n",
		len(reqs), cells, r.workers())
	var gridStart float64
	if r.spans != nil {
		gridStart = r.spans.Now()
	}
	out, err := r.sched.RunGrid(r.ctx, reqs)
	if r.spans != nil {
		r.spans.Append(bgpchurn.SpanRecord{
			Level: bgpchurn.SpanSweep, Name: fmt.Sprintf("grid (%d sweeps)", len(reqs)),
			StartUS: gridStart, DurUS: r.spans.Now() - gridStart,
		})
	}
	results := make(map[string]*bgpchurn.SweepResult, len(out))
	for i, sw := range out {
		results[sweepKey(reqs[i])] = sw
	}
	return results, err
}

// runFigures computes the selected figures' grid, then renders each figure
// from the results of its own sweeps, in table order. A figure one of whose
// sweeps lost a cell to quarantine is skipped — reported on stderr and
// returned in skipped — while the rest render. Cancellation sets
// r.interrupted and renders nothing more.
func (r *runner) runFigures(sel []figure, stderr io.Writer) (ran, skipped []string, err error) {
	grid, err := r.grid(sel)
	switch {
	case errors.Is(err, context.Canceled):
		r.interrupted = true
		return nil, nil, nil
	case err != nil && !bgpchurn.IsQuarantined(err):
		return nil, nil, err
	}
	quarantined := r.sched.Quarantined()
	for _, f := range sel {
		if r.ctx.Err() != nil {
			r.interrupted = true
			break
		}
		fmt.Fprintf(r.stdout, "=== Figure %s: %s ===\n", f.id, f.des)
		sws, err := r.sweepsOf(f, grid, quarantined)
		if bgpchurn.IsQuarantined(err) {
			skipped = append(skipped, f.id)
			fmt.Fprintf(stderr, "experiments: figure %s skipped (quarantined cell): %v\n", f.id, err)
			fmt.Fprintln(r.stdout)
			continue
		}
		if err == nil {
			err = f.render(r, sws)
		}
		if err != nil {
			return ran, skipped, fmt.Errorf("figure %s: %w", f.id, err)
		}
		ran = append(ran, f.id)
		fmt.Fprintln(r.stdout)
	}
	return ran, skipped, nil
}

// sweepsOf returns f's sweeps from the grid in declaration order. A sweep
// that lost a cell returns that cell's quarantine record, or a plain error
// if the cell is not among the quarantined.
func (r *runner) sweepsOf(f figure, grid map[string]*bgpchurn.SweepResult, quarantined []*bgpchurn.CellQuarantinedError) ([]*bgpchurn.SweepResult, error) {
	sws := make([]*bgpchurn.SweepResult, len(f.sweeps))
	for i, s := range f.sweeps {
		req := r.request(s)
		sw := grid[sweepKey(req)]
		for j, n := range req.Sizes {
			if j < len(sw.Points) && sw.Points[j].N == n {
				continue
			}
			key := core.KeyFor(req.Scenario.Name, n, req.TopologySeed, req.Event)
			for _, q := range quarantined {
				if q.Key == key {
					return nil, q
				}
			}
			return nil, fmt.Errorf("cell %s n=%d has no result", req.Scenario.Name, n)
		}
		sws[i] = sw
	}
	return sws, nil
}

func (r *runner) sizes() []int {
	if r.fast {
		return []int{1000, 2000, 3000}
	}
	return bgpchurn.PaperSizes()
}

func (r *runner) experiment(wrate bool) bgpchurn.Experiment {
	cfg := bgpchurn.DefaultExperiment(r.seed)
	if wrate {
		cfg.BGP = bgpchurn.WRATEProtocol(r.seed)
	}
	if r.fast {
		cfg.Origins = 20
	}
	if r.origins > 0 {
		cfg.Origins = r.origins
	}
	cfg.WarmStart = r.warm
	cfg.CellTimeout = r.cellTimeout
	cfg.BGP.LinkDelay = des.Time(r.linkDelay)
	cfg.Obs = r.metrics
	cfg.Spans = r.spans
	return cfg
}

// workers reports the scheduler's effective cell parallelism.
func (r *runner) workers() int {
	if r.parallel > 0 {
		return r.parallel
	}
	return runtime.GOMAXPROCS(0)
}

// emit prints the table (plus plot) and writes the CSV if requested.
func (r *runner) emit(name string, t *report.Table, xs []float64, series ...report.Series) error {
	if err := t.Fprint(r.stdout); err != nil {
		return err
	}
	if len(series) > 0 {
		fmt.Fprintln(r.stdout)
		if err := report.AsciiPlot(r.stdout, 10, xs, series...); err != nil {
			return err
		}
	}
	if r.outDir == "" {
		return nil
	}
	return writeFileWith(filepath.Join(r.outDir, name+".csv"), t.WriteCSV)
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// table1 prints the realized Table 1 generator parameters of -scenario at
// each figure size, drawn at -seed (only the tier-1 count depends on it).
func (r *runner) table1([]*bgpchurn.SweepResult) error {
	t := report.NewTable(fmt.Sprintf("Table 1: realized parameters, %s", r.scenario.Name),
		"n", "nT", "nM", "nCP", "nC", "dM", "dCP", "dC", "pM", "pCP-M", "pCP-CP")
	for _, n := range r.sizes() {
		p := r.scenario.Params(n, r.seed)
		t.AddRow(fmt.Sprint(n), fmt.Sprint(p.NT), fmt.Sprint(p.NM), fmt.Sprint(p.NCP), fmt.Sprint(p.NC),
			report.Float(p.DM, 3), report.Float(p.DCP, 3), report.Float(p.DC, 3),
			report.Float(p.PM, 3), report.Float(p.PCPM, 3), report.Float(p.PCPCP, 3))
	}
	return r.emit("table1", t, nil)
}

// topo prints §3's structural properties of -scenario at each figure size,
// measured on the topology the grid cell at that size runs on (seed
// core.CellSeed(seed, n), as in Sweep), and the degree CCDF at the largest
// size.
func (r *runner) topo([]*bgpchurn.SweepResult) error {
	props := report.NewTable(fmt.Sprintf("§3 properties, %s", r.scenario.Name),
		"n", "nT", "nM", "nCP", "nC", "transit", "peering", "MHD M", "MHD CP", "MHD C",
		"peer-deg M", "clustering", "assortativity", "path-len", "max-deg")
	var topo *bgpchurn.Topology
	for _, n := range r.sizes() {
		var err error
		if topo, err = r.scenario.Generate(n, core.CellSeed(r.seed, n)); err != nil {
			return err
		}
		if err := topo.Validate(); err != nil {
			return fmt.Errorf("%s n=%d failed validation: %w", r.scenario.Name, n, err)
		}
		st := bgpchurn.ComputeTopologyStats(topo, 500)
		c := topo.CountByType()
		props.AddRow(fmt.Sprint(n), fmt.Sprint(c[bgpchurn.T]), fmt.Sprint(c[bgpchurn.M]), fmt.Sprint(c[bgpchurn.CP]), fmt.Sprint(c[bgpchurn.C]),
			fmt.Sprint(st.Transit), fmt.Sprint(st.Peering),
			report.Float(st.MeanMHD[bgpchurn.M], 3), report.Float(st.MeanMHD[bgpchurn.CP], 3), report.Float(st.MeanMHD[bgpchurn.C], 3),
			report.Float(st.MeanPeerDeg[bgpchurn.M], 3), report.Float(st.Clustering, 4), report.Float(st.Assortativity, 4),
			report.Float(st.AvgPathLength, 3), fmt.Sprint(st.MaxDegree))
	}
	if err := r.emit("topo", props, nil); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	degs, vals := bgpchurn.DegreeCCDF(topo)
	ccdf := report.NewTable(fmt.Sprintf("Degree CCDF, %s n=%d", r.scenario.Name, topo.N()), "degree", "P(D>=d)")
	for i := range degs {
		ccdf.AddRow(fmt.Sprint(degs[i]), report.Float(vals[i], 6))
	}
	return r.emit("topo_ccdf", ccdf, nil)
}

// fig1 regenerates the monitor churn-growth analysis on the synthetic RIS
// trace (substitution documented in DESIGN.md).
func (r *runner) fig1([]*bgpchurn.SweepResult) error {
	p := bgpchurn.DefaultMonitorTrace(r.seed)
	series, err := bgpchurn.GenerateMonitorTrace(p)
	if err != nil {
		return err
	}
	trend, err := bgpchurn.MannKendall(series)
	if err != nil {
		return err
	}
	days := make([]float64, len(series))
	for i := range days {
		days[i] = float64(i)
	}
	// The table, and so the CSV, holds monthly means in whole updates; the
	// plot draws the daily series.
	t := report.NewTable("Fig 1: daily updates at a synthetic monitor (monthly means)", "day", "updates")
	for d := 0; d+30 <= len(series); d += 30 {
		t.AddRow(fmt.Sprint(d), fmt.Sprintf("%.0f", stats.Mean(series[d:d+30])))
	}
	if err := r.emit("fig1", t, days, report.Series{Name: "updates", Values: series}); err != nil {
		return err
	}
	growth := trend.Slope * float64(len(series)) / stats.Mean(series[:30]) * 100
	fmt.Fprintf(r.stdout, "\nMann-Kendall: S=%d Z=%s p=%s; Sen slope %s updates/day"+
		" => total growth ~%.0f%% over %d days (paper: ~200%% over 2005-2007)\n",
		trend.S, report.Float(trend.Z, 2), report.Float(trend.PValue, 4),
		report.Float(trend.Slope, 1), growth, len(series))
	return nil
}

// fig4Table builds Fig. 4's table from a Baseline sweep; split out so the
// golden test can render the sequential path through the same code.
func fig4Table(sw *bgpchurn.SweepResult, xs []float64) (*report.Table, []report.Series) {
	series := []report.Series{
		{Name: "T", Values: sw.SeriesU(bgpchurn.T)},
		{Name: "M", Values: sw.SeriesU(bgpchurn.M)},
		{Name: "CP", Values: sw.SeriesU(bgpchurn.CP)},
		{Name: "C", Values: sw.SeriesU(bgpchurn.C)},
	}
	t := report.SeriesTable("Fig 4: updates per C-event by node type (Baseline, NO-WRATE)", "n", xs, series...)
	return t, series
}

func (r *runner) fig4(sws []*bgpchurn.SweepResult) error {
	xs := floats(r.sizes())
	t, series := fig4Table(sws[0], xs)
	return r.emit("fig4", t, xs, series...)
}

func (r *runner) fig5(sws []*bgpchurn.SweepResult) error {
	sw := sws[0]
	xs := floats(r.sizes())
	top := []report.Series{
		{Name: "Uc(T)", Values: sw.SeriesURel(bgpchurn.T, bgpchurn.Customer)},
		{Name: "Up(T)", Values: sw.SeriesURel(bgpchurn.T, bgpchurn.Peer)},
	}
	bottom := []report.Series{
		{Name: "Ud(M)", Values: sw.SeriesURel(bgpchurn.M, bgpchurn.Provider)},
		{Name: "Up(M)", Values: sw.SeriesURel(bgpchurn.M, bgpchurn.Peer)},
		{Name: "Uc(M)", Values: sw.SeriesURel(bgpchurn.M, bgpchurn.Customer)},
	}
	t1 := report.SeriesTable("Fig 5 (top): T-node updates by sender relation", "n", xs, top...)
	if err := r.emit("fig5_top", t1, xs, top...); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	t2 := report.SeriesTable("Fig 5 (bottom): M-node updates by sender relation", "n", xs, bottom...)
	return r.emit("fig5_bottom", t2, xs, bottom...)
}

func (r *runner) fig6(sws []*bgpchurn.SweepResult) error {
	sw := sws[0]
	xs := floats(r.sizes())
	series := []report.Series{
		{Name: "Uc(T)", Values: stats.RelativeSeries(sw.SeriesURel(bgpchurn.T, bgpchurn.Customer))},
		{Name: "Up(T)", Values: stats.RelativeSeries(sw.SeriesURel(bgpchurn.T, bgpchurn.Peer))},
		{Name: "Ud(M)", Values: stats.RelativeSeries(sw.SeriesURel(bgpchurn.M, bgpchurn.Provider))},
	}
	t := report.SeriesTable("Fig 6: relative increase (normalized at first size)", "n", xs, series...)
	if err := r.emit("fig6", t, xs, series...); err != nil {
		return err
	}
	// The paper's regression claims: Uc(T) quadratic, Up(T) linear.
	ucT := sw.SeriesURel(bgpchurn.T, bgpchurn.Customer)
	upT := sw.SeriesURel(bgpchurn.T, bgpchurn.Peer)
	if quad, err := bgpchurn.QuadraticFit(xs, ucT); err == nil {
		fmt.Fprintf(r.stdout, "\nUc(T) quadratic fit R2 = %s (paper: 0.92)\n", report.Float(quad.R2, 3))
	}
	if lin, err := bgpchurn.LinearFit(xs, upT); err == nil {
		fmt.Fprintf(r.stdout, "Up(T) linear fit R2 = %s (paper: 0.95)\n", report.Float(lin.R2, 3))
	}
	return nil
}

func (r *runner) fig7(sws []*bgpchurn.SweepResult) error {
	sw := sws[0]
	xs := floats(r.sizes())
	mSeries := []report.Series{
		{Name: "mc,T", Values: stats.RelativeSeries(sw.SeriesM(bgpchurn.T, bgpchurn.Customer))},
		{Name: "md,M", Values: stats.RelativeSeries(sw.SeriesM(bgpchurn.M, bgpchurn.Provider))},
		{Name: "mp,T", Values: stats.RelativeSeries(sw.SeriesM(bgpchurn.T, bgpchurn.Peer))},
	}
	eSeries := []report.Series{
		{Name: "ed,M", Values: stats.RelativeSeries(sw.SeriesE(bgpchurn.M, bgpchurn.Provider))},
		{Name: "ep,T", Values: stats.RelativeSeries(sw.SeriesE(bgpchurn.T, bgpchurn.Peer))},
		{Name: "ec,T", Values: stats.RelativeSeries(sw.SeriesE(bgpchurn.T, bgpchurn.Customer))},
	}
	qSeries := []report.Series{
		{Name: "qd,M", Values: sw.SeriesQ(bgpchurn.M, bgpchurn.Provider)},
		{Name: "qp,T", Values: sw.SeriesQ(bgpchurn.T, bgpchurn.Peer)},
		{Name: "qc,T", Values: sw.SeriesQ(bgpchurn.T, bgpchurn.Customer)},
	}
	t1 := report.SeriesTable("Fig 7 (top): relative increase of m factors", "n", xs, mSeries...)
	if err := r.emit("fig7_m", t1, xs, mSeries...); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	t2 := report.SeriesTable("Fig 7 (middle): relative increase of e factors", "n", xs, eSeries...)
	if err := r.emit("fig7_e", t2, xs, eSeries...); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	t3 := report.SeriesTable("Fig 7 (bottom): q probabilities (absolute)", "n", xs, qSeries...)
	return r.emit("fig7_q", t3, xs, qSeries...)
}

// deviationFigure renders a family of scenario sweeps as one relative-
// increase table of U at the given node type, normalized to the Baseline's
// first point as in the paper.
func (r *runner) deviationFigure(name, title string, typ bgpchurn.NodeType, sws []*bgpchurn.SweepResult) error {
	xs := floats(r.sizes())
	var norm float64
	for _, sw := range sws {
		if sw.Scenario == bgpchurn.Baseline.Name {
			norm = sw.SeriesU(typ)[0]
		}
	}
	series := make([]report.Series, len(sws))
	for i, sw := range sws {
		vals := sw.SeriesU(typ)
		rel := make([]float64, len(vals))
		for j, v := range vals {
			rel[j] = v / norm
		}
		series[i] = report.Series{Name: sw.Scenario, Values: rel}
	}
	t := report.SeriesTable(title, "n", xs, series...)
	return r.emit(name, t, xs, series...)
}

func (r *runner) fig8(sws []*bgpchurn.SweepResult) error {
	return r.deviationFigure("fig8",
		"Fig 8: relative U(T), population-mix deviations (Baseline n0 = 1)",
		bgpchurn.T, sws)
}

func (r *runner) fig9(sws []*bgpchurn.SweepResult) error {
	if err := r.deviationFigure("fig9_top",
		"Fig 9 (top): relative U(T), multihoming deviations",
		bgpchurn.T, sws); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	// Bottom panel: absolute mc,T per deviation.
	xs := floats(r.sizes())
	series := make([]report.Series, len(sws))
	for i, sw := range sws {
		series[i] = report.Series{Name: sw.Scenario, Values: sw.SeriesM(bgpchurn.T, bgpchurn.Customer)}
	}
	t := report.SeriesTable("Fig 9 (bottom): mc,T per deviation", "n", xs, series...)
	return r.emit("fig9_bottom", t, xs, series...)
}

func (r *runner) fig10(sws []*bgpchurn.SweepResult) error {
	xs := floats(r.sizes())
	series := make([]report.Series, len(sws))
	for i, sw := range sws {
		series[i] = report.Series{Name: sw.Scenario, Values: sw.SeriesU(bgpchurn.M)}
	}
	t := report.SeriesTable("Fig 10: U(M), peering deviations (absolute)", "n", xs, series...)
	return r.emit("fig10", t, xs, series...)
}

func (r *runner) fig11(sws []*bgpchurn.SweepResult) error {
	if err := r.deviationFigure("fig11_top",
		"Fig 11 (top): relative U(T), provider-preference deviations",
		bgpchurn.T, sws); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	// The middle and bottom panels show the deviations alone.
	xs := floats(r.sizes())
	var mc, qc []report.Series
	for _, sw := range sws {
		if sw.Scenario == bgpchurn.Baseline.Name {
			continue
		}
		mc = append(mc, report.Series{Name: sw.Scenario, Values: sw.SeriesM(bgpchurn.T, bgpchurn.Customer)})
		qc = append(qc, report.Series{Name: sw.Scenario, Values: sw.SeriesQ(bgpchurn.T, bgpchurn.Customer)})
	}
	t2 := report.SeriesTable("Fig 11 (middle): mc,T", "n", xs, mc...)
	if err := r.emit("fig11_mc", t2, xs, mc...); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	t3 := report.SeriesTable("Fig 11 (bottom): qc,T", "n", xs, qc...)
	return r.emit("fig11_qc", t3, xs, qc...)
}

func (r *runner) fig12(sws []*bgpchurn.SweepResult) error {
	noW, w := sws[0], sws[1]
	xs := floats(r.sizes())
	var ratios []report.Series
	for _, typ := range []bgpchurn.NodeType{bgpchurn.C, bgpchurn.CP, bgpchurn.M, bgpchurn.T} {
		a, b := w.SeriesU(typ), noW.SeriesU(typ)
		vals := make([]float64, len(a))
		for i := range a {
			if b[i] > 0 {
				vals[i] = a[i] / b[i]
			}
		}
		ratios = append(ratios, report.Series{Name: typ.String(), Values: vals})
	}
	t := report.SeriesTable("Fig 12 (top): U(X) WRATE / U(X) NO-WRATE", "n", xs, ratios...)
	if err := r.emit("fig12_top", t, xs, ratios...); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	eSeries := []report.Series{
		{Name: "ed,C", Values: w.SeriesE(bgpchurn.C, bgpchurn.Provider)},
		{Name: "ep,T", Values: w.SeriesE(bgpchurn.T, bgpchurn.Peer)},
		{Name: "ec,T", Values: w.SeriesE(bgpchurn.T, bgpchurn.Customer)},
	}
	t2 := report.SeriesTable("Fig 12 (bottom): e factors under WRATE (absolute)", "n", xs, eSeries...)
	return r.emit("fig12_bottom", t2, xs, eSeries...)
}

// cell prints the grid cell (-scenario, -n) in full under both MRAI
// variants: per-type U with its confidence interval and relation split, the
// Eq.-1 factors, path exploration and per-node spread, and the event totals
// with DOWN/UP convergence. sws holds the cell's NO-WRATE sweep, then its
// WRATE sweep.
func (r *runner) cell(sws []*bgpchurn.SweepResult) error {
	at := fmt.Sprintf("Cell %s n=%d", r.scenario.Name, r.n)
	u := report.NewTable(at+": updates received per C-event (mean over origins and nodes)",
		"variant", "type", "nodes", "U", "±95%", "Uc", "Up", "Ud")
	factors := report.NewTable(at+": Eq.-1 factor decomposition U = m*q*e",
		"variant", "type", "relation", "m", "q", "e", "U")
	spread := report.NewTable(at+": path exploration and per-node spread",
		"variant", "type", "route-changes/event", "median U", "p90 U", "max U")
	totals := report.NewTable(at+": network-wide updates per event and convergence (virtual seconds)",
		"variant", "total-updates", "peak/s", "down-s", "up-s")
	for i, name := range []string{"NO-WRATE", "WRATE"} {
		res := sws[i].Points[0].R
		for _, typ := range []bgpchurn.NodeType{bgpchurn.T, bgpchurn.M, bgpchurn.CP, bgpchurn.C} {
			tr := res.ByType[typ]
			u.AddRow(name, typ.String(), fmt.Sprint(tr.Nodes),
				report.Float(tr.U, 3), report.Float(tr.CI95, 3),
				report.Float(tr.ByRel[bgpchurn.Customer].U, 3),
				report.Float(tr.ByRel[bgpchurn.Peer].U, 3),
				report.Float(tr.ByRel[bgpchurn.Provider].U, 3))
			for _, rel := range []bgpchurn.Relation{bgpchurn.Customer, bgpchurn.Peer, bgpchurn.Provider} {
				if rf := tr.ByRel[rel]; rf.M != 0 {
					factors.AddRow(name, typ.String(), rel.String(),
						report.Float(rf.M, 3), report.Float(rf.Q, 4), report.Float(rf.E, 3), report.Float(rf.U, 3))
				}
			}
			sp := res.Spread[typ]
			spread.AddRow(name, typ.String(), report.Float(res.PathExploration[typ], 3),
				report.Float(sp.Median, 2), report.Float(sp.P90, 2), report.Float(sp.Max, 2))
		}
		totals.AddRow(name, report.Float(res.TotalUpdates, 1), report.Float(res.PeakRate, 1),
			report.Float(res.DownSeconds, 2), report.Float(res.UpSeconds, 2))
	}
	for i, t := range []*report.Table{u, factors, spread, totals} {
		if i > 0 {
			fmt.Fprintln(r.stdout)
		}
		if err := r.emit([]string{"cell_u", "cell_factors", "cell_spread", "cell_totals"}[i], t, nil); err != nil {
			return err
		}
	}
	return nil
}

// extensions renders the beyond-the-paper measurements recorded in
// EXPERIMENTS.md: link events vs C-events, path exploration per tier under
// both MRAI variants, and the burstiness of event churn. sws holds the
// C-event sweeps, NO-WRATE then WRATE, then the L-event sweeps.
func (r *runner) extensions(sws []*bgpchurn.SweepResult) error {
	t := report.NewTable(fmt.Sprintf("Extensions at n=%d: event kinds, exploration and burstiness", r.extN()),
		"variant", "total-updates", "peak/s", "explore(T)", "explore(M)", "explore(CP)", "explore(C)", "down-s", "up-s")
	for i, name := range []string{"C-event NO-WRATE", "C-event WRATE", "L-event NO-WRATE", "L-event WRATE"} {
		res := sws[i].Points[0].R
		t.AddRow(name,
			fmt.Sprintf("%.0f", res.TotalUpdates), fmt.Sprintf("%.0f", res.PeakRate),
			report.Float(res.PathExploration[bgpchurn.T], 2),
			report.Float(res.PathExploration[bgpchurn.M], 2),
			report.Float(res.PathExploration[bgpchurn.CP], 2),
			report.Float(res.PathExploration[bgpchurn.C], 2),
			report.Float(res.DownSeconds, 1), report.Float(res.UpSeconds, 1))
	}
	return r.emit("extensions", t, nil)
}
