// Command experiments regenerates every figure of the paper's evaluation
// (Figs. 1 and 4–12) as printed series tables, ASCII trend plots, and
// optional CSV files.
//
// Usage:
//
//	experiments -fig all -fast          # reduced sweep, minutes
//	experiments -fig 4,6,12             # selected figures
//	experiments -fig all -out results/  # full paper-scale sweep + CSVs
//	experiments -fast -parallel 8       # up to 8 grid cells at once
//	experiments -fast -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The profiling flags write standard runtime/pprof profiles of the whole
// run (inspect with `go tool pprof`); see EXPERIMENTS.md, "Profiling".
//
// Full mode uses the paper's parameters (n = 1000..10000, 100 C-event
// originators per point) and takes tens of minutes; -fast cuts both.
//
// All sweeps run through the experiment scheduler: the scenario×size grid
// needed by the selected figures is computed up front on a worker pool
// (-parallel bounds concurrent cells, 0 = GOMAXPROCS), each unique cell
// exactly once — figures that share a sweep (Fig. 4–12 all reuse the
// Baseline sweep) are served from the result cache, and output is
// byte-identical to a sequential run on the same seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"bgpchurn"
	"bgpchurn/internal/des"
	"bgpchurn/internal/report"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitNow is the second-signal hard-exit seam; tests may override it.
var exitNow = os.Exit

// armSecondSignalExit waits for the grid context to be cancelled by the
// first SIGINT/SIGTERM, then re-arms signal delivery so the next signal
// forces an immediate exit with code 130 — a wedged drain (a cell stuck in
// an in-flight computation) must never hold the process hostage. The
// returned disarm func stops the watcher; run() defers it so test
// invocations never leak a signal registration.
func armSecondSignalExit(ctx context.Context, stderr io.Writer) (disarm func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		case <-ctx.Done():
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case <-sig:
			fmt.Fprintln(stderr, "experiments: second signal, forced exit")
			exitNow(exitInterrupted)
		case <-done:
		}
	}()
	return func() { close(done) }
}

// figure is one entry of the -fig selection.
type figure struct {
	id  string
	fn  func(*runner) error
	des string
}

// figures lists every figure the binary can regenerate, in rendering order.
var figures = []figure{
	{"1", (*runner).fig1, "churn growth at a monitor (Mann-Kendall)"},
	{"4", (*runner).fig4, "U(X) per node type vs n"},
	{"5", (*runner).fig5, "per-relation split at T and M nodes"},
	{"6", (*runner).fig6, "relative increase of Uc(T), Up(T), Ud(M)"},
	{"7", (*runner).fig7, "m/e/q factor growth"},
	{"8", (*runner).fig8, "AS population mix deviations"},
	{"9", (*runner).fig9, "multihoming degree deviations"},
	{"10", (*runner).fig10, "peering deviations"},
	{"11", (*runner).fig11, "provider preference deviations"},
	{"12", (*runner).fig12, "WRATE vs NO-WRATE"},
	{"ext", (*runner).extensions, "extensions: L-events, exploration, burstiness"},
}

// selectFigures parses the -fig value: "all" or a comma-separated list of
// figure ids. An unknown id or an empty selection is an error naming the
// valid ids — a typo must not turn into a run that renders nothing.
func selectFigures(spec string) (map[string]bool, error) {
	valid := make([]string, len(figures))
	for i, f := range figures {
		valid[i] = f.id
	}
	wanted := map[string]bool{}
	if spec == "all" {
		for _, id := range valid {
			wanted[id] = true
		}
		return wanted, nil
	}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("-fig: unknown figure %q (valid: %s, or all)", id, strings.Join(valid, ","))
		}
		wanted[id] = true
	}
	return wanted, nil
}

// run is the whole binary behind a testable seam: parse flags, execute,
// return the exit code. Cleanup happens in defers, so every exit path
// flushes profiles, the journal, and the obs server.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs        = fs.String("fig", "all", "comma-separated figure numbers (1,4,...,12) or 'all'")
		fast        = fs.Bool("fast", false, "reduced sizes and origins (for a quick look)")
		outDir      = fs.String("out", "", "directory for CSV output (created if missing)")
		seed        = fs.Uint64("seed", 1, "master seed")
		origins     = fs.Int("origins", 0, "override the number of C-event originators")
		parallel    = fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
		warm        = fs.Bool("warmstart", false, "install the converged pre-event state directly instead of flooding it through the simulator (faster; statistically equivalent but not byte-identical to the default)")
		cpuprof     = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprof     = fs.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
		obsAddr     = fs.String("obs", "", "serve live metrics on this address (e.g. :8080; :0 picks a free port): /metrics, /debug/vars, /debug/pprof/")
		manifest    = fs.String("manifest", "results/manifest.json", "write the run manifest (config, seeds, timings, counters) to this file; empty disables")
		logFormat   = fs.String("log-format", "text", "cell progress log format: text or json")
		tracePath   = fs.String("trace", "", "write a JSONL trace of the most recent updates to this file (bounded ring)")
		traceCap    = fs.Int("trace-cap", 0, "update-trace ring capacity in records (0 = 65536)")
		journalPath = fs.String("journal", "results/cells.journal", "cell checkpoint journal (JSONL); empty disables checkpointing")
		resume      = fs.Bool("resume", false, "replay the cell journal into the scheduler cache before running, so only missing cells are recomputed")
		retries     = fs.Int("retries", 0, "recompute a cell up to this many times after a transient fault (panic, timeout) before quarantining it")
		cellTimeout = fs.Duration("cell-timeout", 0, "per-cell wall-clock deadline (0 = none); a timed-out cell counts as a transient fault")
		shards      = fs.Int("shards", 0, "worker goroutines per simulation run on the windowed executor (0/1 = the caller alone; >1 requires -link-delay); results are byte-identical at every value")
		linkDelay   = fs.Duration("link-delay", 0, "per-session propagation latency (0 = the paper's instant-admission model); positive values select the windowed executor that -shards parallelizes")
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
	wanted, err := selectFigures(*figs)
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

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the grid context —
	// no new cells start, in-flight cells drain, the journal and manifest
	// are flushed, and the run exits with exitInterrupted. NotifyContext
	// keeps the signals registered until stop(), so a second signal would
	// otherwise be swallowed; armSecondSignalExit turns it into an
	// immediate hard exit (code 130) in case the drain wedges.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer armSecondSignalExit(ctx, stderr)()

	r := &runner{
		ctx:         ctx,
		seed:        *seed,
		fast:        *fast,
		outDir:      *outDir,
		origins:     *origins,
		parallel:    *parallel,
		warm:        *warm,
		cellTimeout: *cellTimeout,
		shards:      *shards,
		linkDelay:   *linkDelay,
		sched:       bgpchurn.NewScheduler(*parallel),
		stdout:      stdout,
		metrics:     bgpchurn.NewObsMetrics(),
	}
	r.sched.SetObs(r.metrics)
	r.sched.SetRetryPolicy(*retries, 0)
	bgpchurn.InstrumentTopologyGeneration(r.metrics)
	if *tracePath != "" {
		r.trace = bgpchurn.NewUpdateTrace(*traceCap)
	}
	if *spansPath != "" || *chromePath != "" {
		r.spans = bgpchurn.NewSpanRecorder()
	}
	if *obsAddr != "" {
		srv, err := bgpchurn.ServeObs(*obsAddr, r.metrics)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		r.progress = srv.Progress()
		fmt.Fprintf(stdout, "obs: serving /metrics, /debug/vars, /debug/pprof/, /progress on http://%s\n", srv.Addr())
	}
	if r.spans != nil && r.progress != nil {
		// Stream each completed span to /progress subscribers as it lands.
		progress := r.progress
		r.spans.OnSpan(func(s bgpchurn.SpanRecord) { progress.Publish("span", s) })
	}
	if *journalPath != "" {
		if *resume {
			recs, truncated, err := bgpchurn.LoadJournal(*journalPath)
			switch {
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(stdout, "resume: no journal at %s, starting fresh\n", *journalPath)
			case err != nil:
				return fail(err)
			default:
				seeded := r.sched.Resume(recs)
				fmt.Fprintf(stdout, "resume: seeded %d cells from %s\n", seeded, *journalPath)
				if truncated {
					fmt.Fprintf(stdout, "resume: dropped a torn final journal line (crash mid-append); that cell will be recomputed\n")
				}
			}
		}
		j, err := bgpchurn.OpenJournal(*journalPath)
		if err != nil {
			return fail(err)
		}
		defer j.Close()
		r.sched.SetJournal(j)
	}
	logCell, err := report.NewCellLogger(stdout, *logFormat)
	if err != nil {
		return fail(err)
	}
	r.sched.OnCell = func(cs bgpchurn.CellStatus) {
		r.recordCell(cs)
		r.publishCell(cs)
		logCell(report.CellEvent{
			Scenario: cs.Scenario, N: cs.N, Seed: cs.Seed, State: cs.State.String(),
			Attempt: cs.Attempt, Elapsed: cs.Elapsed, Err: cs.Err,
		})
	}
	r.sched.OnResult = func(cs bgpchurn.CellStatus, res *bgpchurn.Result) {
		r.publishResult(cs, res)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	var runErr error
	// Warm the scheduler cache: every sweep the selected figures need runs
	// as one parallel scenario×size grid, each unique cell exactly once.
	// Quarantined cells do not abort the run — figures that depend on them
	// are skipped below while everything else renders.
	if err := r.prefetch(wanted); err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			r.interrupted = true
		case bgpchurn.IsQuarantined(err):
			// Reported per-figure and in the summary.
		default:
			runErr = err
		}
	}
	var ran, skipped []string
	if runErr == nil && !r.interrupted {
		for _, f := range figures {
			if !wanted[f.id] {
				continue
			}
			if ctx.Err() != nil {
				r.interrupted = true
				break
			}
			fmt.Fprintf(stdout, "=== Figure %s: %s ===\n", f.id, f.des)
			if err := f.fn(r); err != nil {
				if errors.Is(err, context.Canceled) {
					r.interrupted = true
					break
				}
				if bgpchurn.IsQuarantined(err) {
					skipped = append(skipped, f.id)
					fmt.Fprintf(stderr, "experiments: figure %s skipped (quarantined cell): %v\n", f.id, err)
					fmt.Fprintln(stdout)
					continue
				}
				runErr = fmt.Errorf("figure %s: %w", f.id, err)
				break
			}
			ran = append(ran, f.id)
			fmt.Fprintln(stdout)
		}
	}

	// Epilogue: summary, quarantine report, trace, journal and manifest all
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
	if *tracePath != "" {
		if err := writeTrace(*tracePath, r.trace); err != nil && runErr == nil {
			runErr = err
		} else if err == nil {
			fmt.Fprintf(stdout, "trace: %s (%d records, %d overwritten)\n", *tracePath, r.trace.Len(), r.trace.Dropped())
		}
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

// writeTrace exports the update-trace ring as JSONL.
func writeTrace(path string, tr *bgpchurn.UpdateTrace) error {
	return writeFileWith(path, tr.WriteJSONL)
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
	// ctx is the run's cancellation context (signal-driven in the binary;
	// nil means context.Background).
	ctx      context.Context
	seed     uint64
	fast     bool
	outDir   string
	origins  int
	parallel int
	// warm enables warm-start convergence (Experiment.WarmStart).
	warm bool
	// cellTimeout is the per-cell deadline (-cell-timeout; 0 = none).
	cellTimeout time.Duration
	// shards/linkDelay select the sharded windowed executor (-shards,
	// -link-delay). Recorded in the manifest like every flag; shards is
	// excluded from the cell cache key (results are shard-invariant).
	shards    int
	linkDelay time.Duration
	// interrupted records that the run was cancelled by a signal, for the
	// manifest.
	interrupted bool
	// sched runs every sweep: cells execute on its worker pool and figures
	// that request the same sweep are served from its result cache.
	sched *bgpchurn.Scheduler
	// stdout receives tables and plots (os.Stdout in the binary; a buffer
	// or io.Discard in tests).
	stdout io.Writer
	// metrics is the run's instrumentation hub, attached to the scheduler,
	// every worker network, and topology generation.
	metrics *bgpchurn.ObsMetrics
	// trace, when non-nil, captures the most recent updates (-trace flag).
	trace *bgpchurn.UpdateTrace
	// spans, when non-nil, collects the sweep→cell→origin→event causal span
	// hierarchy (-spans / -chrome-trace flags).
	spans *bgpchurn.SpanRecorder
	// progress, when non-nil, is the obs server's /progress SSE broker;
	// cell status, results and spans stream into it mid-grid.
	progress *bgpchurn.ProgressBroker
	// cells accumulates manifest entries, one per OnCell progress event
	// except "start". Appends happen inside the serialized OnCell callback.
	cells []bgpchurn.CellTiming
	// rollCells/rollU accumulate the rolling Eq.-1 attribution summary
	// streamed on /progress: completed-cell count and running sums of U(X)
	// per node type. Updated only inside the serialized OnResult callback.
	rollCells int
	rollU     [4]float64
}

// publishCell streams one scheduler progress event to /progress.
func (r *runner) publishCell(cs bgpchurn.CellStatus) {
	if r.progress == nil {
		return
	}
	payload := map[string]any{
		"scenario":   cs.Scenario,
		"n":          cs.N,
		"state":      cs.State.String(),
		"attempt":    cs.Attempt,
		"elapsed_ms": float64(cs.Elapsed) / float64(time.Millisecond),
	}
	if cs.Err != nil {
		payload["err"] = cs.Err.Error()
	}
	r.progress.Publish("cell", payload)
}

// publishResult folds one available cell result into the rolling Eq.-1
// attribution summary and streams it. Calls arrive serialized (the
// scheduler's OnResult mutex), so the accumulators need no locking.
func (r *runner) publishResult(cs bgpchurn.CellStatus, res *bgpchurn.Result) {
	if r.progress == nil || res == nil {
		return
	}
	r.rollCells++
	cell := map[string]any{
		"scenario":      cs.Scenario,
		"n":             cs.N,
		"total_updates": res.TotalUpdates,
		"peak_rate":     res.PeakRate,
	}
	mean := map[string]float64{}
	for _, t := range []bgpchurn.NodeType{bgpchurn.T, bgpchurn.M, bgpchurn.CP, bgpchurn.C} {
		r.rollU[t] += res.U(t)
		cell["u_"+t.String()] = res.U(t)
		mean["u_"+t.String()] = r.rollU[t] / float64(r.rollCells)
	}
	r.progress.Publish("attribution", map[string]any{
		"cells":        r.rollCells,
		"cell":         cell,
		"rolling_mean": mean,
	})
}

// recordCell stores one scheduler progress event for the run manifest.
func (r *runner) recordCell(cs bgpchurn.CellStatus) {
	if cs.State == bgpchurn.CellStart {
		return
	}
	ct := bgpchurn.CellTiming{
		Scenario:  cs.Scenario,
		N:         cs.N,
		Seed:      cs.Seed,
		State:     cs.State.String(),
		ElapsedMS: float64(cs.Elapsed) / float64(time.Millisecond),
	}
	if cs.Attempt > 1 {
		ct.Attempts = cs.Attempt
	}
	if cs.Err != nil {
		ct.Err = cs.Err.Error()
	}
	r.cells = append(r.cells, ct)
	if r.spans != nil && cs.State == bgpchurn.CellDone {
		end := r.spans.Now()
		dur := float64(cs.Elapsed) / float64(time.Microsecond)
		r.spans.Append(bgpchurn.SpanRecord{
			Level: bgpchurn.SpanCell, Name: "cell",
			StartUS: end - dur, DurUS: dur,
			Scenario: cs.Scenario, N: cs.N,
		})
	}
}

// writeManifest assembles and writes the run manifest: provenance, the
// effective configuration, per-cell timings, the scheduler's cache traffic
// and the final metric snapshot.
func (r *runner) writeManifest(path string, config map[string]string, figures []string, wall time.Duration) error {
	st := r.sched.CacheStats()
	mf := &bgpchurn.Manifest{
		SchemaVersion: 1,
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
			if c.Attempts > 1 {
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

// sweepVariant names one (scenario, protocol) sweep a figure depends on.
type sweepVariant struct {
	sc    bgpchurn.Scenario
	wrate bool
}

// figSweeps lists the sweeps each figure needs, for cache prefetching.
func figSweeps(id string) []sweepVariant {
	base := sweepVariant{bgpchurn.Baseline, false}
	noW := func(scs ...bgpchurn.Scenario) []sweepVariant {
		out := make([]sweepVariant, len(scs))
		for i, sc := range scs {
			out[i] = sweepVariant{sc, false}
		}
		return out
	}
	switch id {
	case "4", "5", "6", "7":
		return []sweepVariant{base}
	case "8":
		return noW(bgpchurn.RichMiddle, bgpchurn.Baseline, bgpchurn.StaticMiddle, bgpchurn.TransitClique, bgpchurn.NoMiddle)
	case "9":
		return noW(bgpchurn.DenseCore, bgpchurn.DenseEdge, bgpchurn.Baseline, bgpchurn.Tree, bgpchurn.ConstantMHD)
	case "10":
		return noW(bgpchurn.Baseline, bgpchurn.NoPeering, bgpchurn.StrongCorePeering, bgpchurn.StrongEdgePeering)
	case "11":
		return noW(bgpchurn.Baseline, bgpchurn.PreferMiddle, bgpchurn.PreferTop)
	case "12":
		return []sweepVariant{base, {bgpchurn.Baseline, true}}
	}
	return nil // figures 1 and ext run no sweeps
}

// prefetch computes every sweep the wanted figures need as one parallel
// grid, so the figures themselves render from the cache.
func (r *runner) prefetch(wanted map[string]bool) error {
	seen := map[string]bool{}
	var reqs []bgpchurn.GridRequest
	for id := range wanted {
		for _, v := range figSweeps(id) {
			key := fmt.Sprintf("%s/%v", v.sc.Name, v.wrate)
			if seen[key] {
				continue
			}
			seen[key] = true
			reqs = append(reqs, bgpchurn.GridRequest{
				Scenario: v.sc, Sizes: r.sizes(), TopologySeed: r.seed, Event: r.experiment(v.wrate),
			})
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	// Map iteration order is random; fix the request (and thus job) order.
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Scenario.Name != reqs[j].Scenario.Name {
			return reqs[i].Scenario.Name < reqs[j].Scenario.Name
		}
		return !reqs[i].Event.BGP.RateLimitWithdrawals
	})
	fmt.Fprintf(r.stdout, "scheduling %d sweeps (%d grid cells, parallelism %d)...\n",
		len(reqs), len(reqs)*len(r.sizes()), r.workers())
	var gridStart float64
	if r.spans != nil {
		gridStart = r.spans.Now()
	}
	_, err := r.sched.RunGrid(r.ctx, reqs)
	if r.spans != nil {
		r.spans.Append(bgpchurn.SpanRecord{
			Level: bgpchurn.SpanSweep, Name: fmt.Sprintf("grid (%d sweeps)", len(reqs)),
			StartUS: gridStart, DurUS: r.spans.Now() - gridStart,
		})
	}
	return err
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
	cfg.Parallelism = r.parallel
	cfg.WarmStart = r.warm
	cfg.CellTimeout = r.cellTimeout
	cfg.BGP.LinkDelay = des.Time(r.linkDelay)
	cfg.BGP.Shards = r.shards
	cfg.Obs = r.metrics
	cfg.Trace = r.trace
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

// sweep fetches one scenario sweep through the scheduler. After prefetch
// this is pure cache traffic (hits are logged by the OnCell callback);
// results are byte-identical to the sequential bgpchurn.Sweep.
func (r *runner) sweep(sc bgpchurn.Scenario, wrate bool) (*bgpchurn.SweepResult, error) {
	return r.sched.RunSweep(r.ctx, sc, bgpchurn.SweepConfig{
		Sizes:        r.sizes(),
		TopologySeed: r.seed,
		Event:        r.experiment(wrate),
	})
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
	f, err := os.Create(filepath.Join(r.outDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// fig1 regenerates the monitor churn-growth analysis on the synthetic RIS
// trace (substitution documented in DESIGN.md).
func (r *runner) fig1() error { return r.runFig1() }

func (r *runner) runFig1() error {
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
	// Monthly means keep the table readable; the CSV gets daily values.
	t := report.NewTable("Fig 1: daily updates at a synthetic monitor (monthly means)", "day", "updates")
	for d := 0; d+30 <= len(series); d += 30 {
		t.AddRow(fmt.Sprint(d), report.Float(stats.Mean(series[d:d+30]), 0))
	}
	if err := r.emit("fig1", t, days, report.Series{Name: "updates", Values: series}); err != nil {
		return err
	}
	growth := trend.Slope * float64(len(series)) / stats.Mean(series[:30]) * 100
	fmt.Printf("\nMann-Kendall: S=%d Z=%s p=%s; Sen slope %s updates/day"+
		" => total growth ~%s%% over %d days (paper: ~200%% over 2005-2007)\n",
		trend.S, report.Float(trend.Z, 2), report.Float(trend.PValue, 4),
		report.Float(trend.Slope, 1), report.Float(growth, 0), len(series))
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

func (r *runner) fig4() error {
	sw, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		return err
	}
	xs := floats(r.sizes())
	t, series := fig4Table(sw, xs)
	return r.emit("fig4", t, xs, series...)
}

func (r *runner) fig5() error {
	sw, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		return err
	}
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
	fmt.Println()
	t2 := report.SeriesTable("Fig 5 (bottom): M-node updates by sender relation", "n", xs, bottom...)
	return r.emit("fig5_bottom", t2, xs, bottom...)
}

func (r *runner) fig6() error {
	sw, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		return err
	}
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
		fmt.Printf("\nUc(T) quadratic fit R2 = %s (paper: 0.92)\n", report.Float(quad.R2, 3))
	}
	if lin, err := bgpchurn.LinearFit(xs, upT); err == nil {
		fmt.Printf("Up(T) linear fit R2 = %s (paper: 0.95)\n", report.Float(lin.R2, 3))
	}
	return nil
}

func (r *runner) fig7() error {
	sw, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		return err
	}
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
	fmt.Println()
	t2 := report.SeriesTable("Fig 7 (middle): relative increase of e factors", "n", xs, eSeries...)
	if err := r.emit("fig7_e", t2, xs, eSeries...); err != nil {
		return err
	}
	fmt.Println()
	t3 := report.SeriesTable("Fig 7 (bottom): q probabilities (absolute)", "n", xs, qSeries...)
	return r.emit("fig7_q", t3, xs, qSeries...)
}

// deviationFigure renders a family of scenario sweeps as one relative-
// increase table of U at the given node type, normalized to the Baseline's
// first point as in the paper.
func (r *runner) deviationFigure(name, title string, typ bgpchurn.NodeType, scenarios []bgpchurn.Scenario) error {
	xs := floats(r.sizes())
	base, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		return err
	}
	norm := base.SeriesU(typ)[0]
	var series []report.Series
	for _, sc := range scenarios {
		sw, err := r.sweep(sc, false)
		if err != nil {
			return err
		}
		vals := sw.SeriesU(typ)
		rel := make([]float64, len(vals))
		for i, v := range vals {
			rel[i] = v / norm
		}
		series = append(series, report.Series{Name: sc.Name, Values: rel})
	}
	t := report.SeriesTable(title, "n", xs, series...)
	return r.emit(name, t, xs, series...)
}

func (r *runner) fig8() error {
	return r.deviationFigure("fig8",
		"Fig 8: relative U(T), population-mix deviations (Baseline n0 = 1)",
		bgpchurn.T,
		[]bgpchurn.Scenario{bgpchurn.RichMiddle, bgpchurn.Baseline, bgpchurn.StaticMiddle, bgpchurn.TransitClique, bgpchurn.NoMiddle})
}

func (r *runner) fig9() error {
	if err := r.deviationFigure("fig9_top",
		"Fig 9 (top): relative U(T), multihoming deviations",
		bgpchurn.T,
		[]bgpchurn.Scenario{bgpchurn.DenseCore, bgpchurn.DenseEdge, bgpchurn.Baseline, bgpchurn.Tree, bgpchurn.ConstantMHD}); err != nil {
		return err
	}
	fmt.Println()
	// Bottom panel: absolute mc,T per deviation.
	xs := floats(r.sizes())
	var series []report.Series
	for _, sc := range []bgpchurn.Scenario{bgpchurn.DenseCore, bgpchurn.DenseEdge, bgpchurn.Baseline, bgpchurn.Tree, bgpchurn.ConstantMHD} {
		sw, err := r.sweep(sc, false)
		if err != nil {
			return err
		}
		series = append(series, report.Series{Name: sc.Name, Values: sw.SeriesM(bgpchurn.T, bgpchurn.Customer)})
	}
	t := report.SeriesTable("Fig 9 (bottom): mc,T per deviation", "n", xs, series...)
	return r.emit("fig9_bottom", t, xs, series...)
}

func (r *runner) fig10() error {
	xs := floats(r.sizes())
	var series []report.Series
	for _, sc := range []bgpchurn.Scenario{bgpchurn.Baseline, bgpchurn.NoPeering, bgpchurn.StrongCorePeering, bgpchurn.StrongEdgePeering} {
		sw, err := r.sweep(sc, false)
		if err != nil {
			return err
		}
		series = append(series, report.Series{Name: sc.Name, Values: sw.SeriesU(bgpchurn.M)})
	}
	t := report.SeriesTable("Fig 10: U(M), peering deviations (absolute)", "n", xs, series...)
	return r.emit("fig10", t, xs, series...)
}

func (r *runner) fig11() error {
	if err := r.deviationFigure("fig11_top",
		"Fig 11 (top): relative U(T), provider-preference deviations",
		bgpchurn.T,
		[]bgpchurn.Scenario{bgpchurn.Baseline, bgpchurn.PreferMiddle, bgpchurn.PreferTop}); err != nil {
		return err
	}
	fmt.Println()
	xs := floats(r.sizes())
	var mc, qc []report.Series
	for _, sc := range []bgpchurn.Scenario{bgpchurn.PreferMiddle, bgpchurn.PreferTop} {
		sw, err := r.sweep(sc, false)
		if err != nil {
			return err
		}
		mc = append(mc, report.Series{Name: sc.Name, Values: sw.SeriesM(bgpchurn.T, bgpchurn.Customer)})
		qc = append(qc, report.Series{Name: sc.Name, Values: sw.SeriesQ(bgpchurn.T, bgpchurn.Customer)})
	}
	t2 := report.SeriesTable("Fig 11 (middle): mc,T", "n", xs, mc...)
	if err := r.emit("fig11_mc", t2, xs, mc...); err != nil {
		return err
	}
	fmt.Println()
	t3 := report.SeriesTable("Fig 11 (bottom): qc,T", "n", xs, qc...)
	return r.emit("fig11_qc", t3, xs, qc...)
}

func (r *runner) fig12() error {
	noW, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		return err
	}
	w, err := r.sweep(bgpchurn.Baseline, true)
	if err != nil {
		return err
	}
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
	fmt.Println()
	eSeries := []report.Series{
		{Name: "ed,C", Values: w.SeriesE(bgpchurn.C, bgpchurn.Provider)},
		{Name: "ep,T", Values: w.SeriesE(bgpchurn.T, bgpchurn.Peer)},
		{Name: "ec,T", Values: w.SeriesE(bgpchurn.T, bgpchurn.Customer)},
	}
	t2 := report.SeriesTable("Fig 12 (bottom): e factors under WRATE (absolute)", "n", xs, eSeries...)
	return r.emit("fig12_bottom", t2, xs, eSeries...)
}

// extensions runs the beyond-the-paper measurements recorded in
// EXPERIMENTS.md: link events vs C-events, path exploration per tier under
// both MRAI variants, and the burstiness of event churn.
func (r *runner) extensions() error {
	n := 2000
	if r.fast {
		n = 1000
	}
	topo, err := bgpchurn.Baseline.Generate(n, r.seed)
	if err != nil {
		return err
	}

	type variant struct {
		name string
		cfg  bgpchurn.Experiment
	}
	mk := func(wrate bool, kind bgpchurn.EventKind) bgpchurn.Experiment {
		cfg := r.experiment(wrate)
		cfg.Kind = kind
		return cfg
	}
	variants := []variant{
		{"C-event NO-WRATE", mk(false, bgpchurn.CEventKind)},
		{"C-event WRATE", mk(true, bgpchurn.CEventKind)},
		{"L-event NO-WRATE", mk(false, bgpchurn.LinkEventKind)},
		{"L-event WRATE", mk(true, bgpchurn.LinkEventKind)},
	}

	t := report.NewTable(fmt.Sprintf("Extensions at n=%d: event kinds, exploration and burstiness", n),
		"variant", "total-updates", "peak/s", "explore(T)", "explore(M)", "explore(CP)", "explore(C)", "down-s", "up-s")
	for _, v := range variants {
		res, err := bgpchurn.RunCEvents(topo, v.cfg)
		if err != nil {
			return err
		}
		t.AddRow(v.name,
			report.Float(res.TotalUpdates, 0), report.Float(res.PeakRate, 0),
			report.Float(res.PathExploration[bgpchurn.T], 2),
			report.Float(res.PathExploration[bgpchurn.M], 2),
			report.Float(res.PathExploration[bgpchurn.CP], 2),
			report.Float(res.PathExploration[bgpchurn.C], 2),
			report.Float(res.DownSeconds, 1), report.Float(res.UpSeconds, 1))
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	if r.outDir != "" {
		f, err := os.Create(filepath.Join(r.outDir, "extensions.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return t.WriteCSV(f)
	}
	return nil
}
