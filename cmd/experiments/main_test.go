package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpchurn"
	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
	"bgpchurn/internal/topology"
)

func TestRunnerSizes(t *testing.T) {
	fast := &runner{fast: true}
	if got := fast.sizes(); len(got) != 3 || got[2] != 3000 {
		t.Fatalf("fast sizes = %v", got)
	}
	full := &runner{}
	if got := full.sizes(); len(got) != 10 || got[0] != 1000 || got[9] != 10000 {
		t.Fatalf("full sizes = %v", got)
	}
}

func TestRunnerExperiment(t *testing.T) {
	r := &runner{seed: 7, fast: true, parallel: 2}
	cfg := r.experiment(false)
	// -parallel bounds cells only: origin workers are left to the core
	// budget (Parallelism 0), or -parallel 8 would mean 8 × 8 workers.
	if cfg.Origins != 20 || cfg.BGP.RateLimitWithdrawals || cfg.Parallelism != 0 {
		t.Fatalf("fast NO-WRATE config: %+v", cfg)
	}
	cfg = r.experiment(true)
	if !cfg.BGP.RateLimitWithdrawals {
		t.Fatal("WRATE flag lost")
	}
	r.origins = 33
	if got := r.experiment(false).Origins; got != 33 {
		t.Fatalf("origin override = %d", got)
	}
	if cfg := r.experiment(false); cfg.WarmStart {
		t.Fatal("warm start on by default")
	}
	r.warm = true
	if cfg := r.experiment(false); !cfg.WarmStart {
		t.Fatal("-warmstart not propagated to the experiment config")
	}
	full := &runner{seed: 7}
	if got := full.experiment(false).Origins; got != 100 {
		t.Fatalf("full-mode origins = %d, want the paper's 100", got)
	}
}

func TestFloats(t *testing.T) {
	got := floats([]int{1, 2, 3})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("floats = %v", got)
	}
	if len(floats(nil)) != 0 {
		t.Fatal("nil floats")
	}
}

// fastRunner builds a -fast runner with silenced table output, matching
// the binary's defaults for everything else.
func fastRunner(seed uint64) *runner {
	return &runner{
		ctx: context.Background(), scenario: bgpchurn.Baseline, n: 1000, seed: seed, fast: true,
		sched: bgpchurn.NewScheduler(0), stdout: io.Discard,
	}
}

// mustSelect returns the figures spec selects, as -fig does.
func mustSelect(t *testing.T, spec string) []figure {
	t.Helper()
	sel, err := selectFigures(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// mustRun runs the binary's grid-and-render path for the figures spec
// selects, failing on any error or skipped figure.
func mustRun(t *testing.T, r *runner, spec string) {
	t.Helper()
	if _, skipped, err := r.runFigures(mustSelect(t, spec), io.Discard); err != nil || len(skipped) > 0 {
		t.Fatalf("-fig %s: skipped %v, err %v", spec, skipped, err)
	}
}

func TestSweepCaching(t *testing.T) {
	// Figures that declare the same sweep read one result from the grid, and
	// a second grid of the same sweeps on the same scheduler (what -resume
	// seeds) is pure cache traffic returning equal results.
	r := fastRunner(3)
	sel := mustSelect(t, "4,6")
	first, err := r.grid(sel)
	if err != nil {
		t.Fatal(err)
	}
	st := r.sched.CacheStats()
	if st.Misses != len(r.sizes()) || st.Hits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	s4, err4 := r.sweepsOf(sel[0], first, nil)
	s6, err6 := r.sweepsOf(sel[1], first, nil)
	if err4 != nil || err6 != nil || s4[0] != s6[0] {
		t.Fatalf("figures 4 and 6 read different Baseline sweeps (errs %v, %v)", err4, err6)
	}
	second, err := r.grid(sel)
	if err != nil {
		t.Fatal(err)
	}
	st = r.sched.CacheStats()
	if st.Misses != len(r.sizes()) || st.Hits != len(r.sizes()) {
		t.Fatalf("warm stats = %+v, want every cell served from cache", st)
	}
	for k, sw := range first {
		for i := range sw.Points {
			if sw.Points[i].R != second[k].Points[i].R {
				t.Fatalf("cell n=%d recomputed", sw.Points[i].N)
			}
		}
	}
}

func TestFigSweepsCoverAllFigures(t *testing.T) {
	r := fastRunner(1)
	r.scenario, r.n = bgpchurn.DenseCore, 1500
	byID := map[string]figure{}
	for _, f := range figures {
		byID[f.id] = f
	}
	for _, id := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "12", "cell", "ext"} {
		if len(byID[id].sweeps) == 0 {
			t.Errorf("figure %s declares no sweeps", id)
		}
	}
	for _, id := range []string{"table1", "topo", "1"} {
		if len(byID[id].sweeps) != 0 {
			t.Errorf("figure %s should declare no sweeps", id)
		}
	}
	for _, f := range figures {
		for _, s := range f.sweeps {
			if req := r.request(s); f.id != "cell" && f.id != "ext" && len(req.Sizes) != len(r.sizes()) {
				t.Errorf("figure %s sweeps %v, want the figure sizes", f.id, req.Sizes)
			}
		}
	}
	// Fig. 12 needs both protocol variants of the Baseline sweep.
	v := byID["12"].sweeps
	if len(v) != 2 || v[0].wrate == v[1].wrate {
		t.Fatalf("fig 12 sweeps = %+v", v)
	}
	// The cell is -scenario at the single size -n, NO-WRATE then WRATE.
	v = byID["cell"].sweeps
	if len(v) != 2 || v[0].wrate || !v[1].wrate {
		t.Fatalf("cell sweeps = %+v", v)
	}
	for _, s := range v {
		if req := r.request(s); req.Scenario.Name != bgpchurn.DenseCore.Name || len(req.Sizes) != 1 || req.Sizes[0] != 1500 {
			t.Fatalf("cell sweep = %s %v, want DENSE-CORE at n=1500", req.Scenario.Name, req.Sizes)
		}
	}
	// ext is Baseline at one size: C- then L-events, each NO-WRATE then WRATE.
	v = byID["ext"].sweeps
	want := []struct {
		kind  bgpchurn.EventKind
		wrate bool
	}{{bgpchurn.CEventKind, false}, {bgpchurn.CEventKind, true}, {bgpchurn.LinkEventKind, false}, {bgpchurn.LinkEventKind, true}}
	if len(v) != len(want) {
		t.Fatalf("ext sweeps = %+v", v)
	}
	for i, s := range v {
		req := r.request(s)
		if req.Scenario.Name != bgpchurn.Baseline.Name || len(req.Sizes) != 1 || req.Sizes[0] != 1000 ||
			req.Event.Kind != want[i].kind || s.wrate != want[i].wrate {
			t.Fatalf("ext sweep %d = %s %v kind %v wrate %v, want BASELINE at n=1000, %+v",
				i, req.Scenario.Name, req.Sizes, req.Event.Kind, s.wrate, want[i])
		}
	}
}

func TestPrefetchDeduplicatesSharedSweeps(t *testing.T) {
	// Figures 4 and 6 share the Baseline NO-WRATE sweep: their grid computes
	// each cell exactly once, and rendering both adds no scheduler traffic.
	r := fastRunner(1)
	mustRun(t, r, "4,6")
	st := r.sched.CacheStats()
	if st.Misses != len(r.sizes()) || st.Hits != 0 {
		t.Fatalf("stats = %+v, want %d unique cells, no duplicates and no render-time requests", st, len(r.sizes()))
	}
}

// TestFig4FastGoldenCSV locks the output of `experiments -fast -fig 4`
// (seed 1): the scheduler-produced CSV must match both the committed
// golden file and a sequential core.Sweep rendered through the same table
// code, so scheduler refactors cannot silently change figure output.
func TestFig4FastGoldenCSV(t *testing.T) {
	dir := t.TempDir()
	r := fastRunner(1)
	r.outDir = dir
	mustRun(t, r, "4")
	got, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "fig4_fast.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("fig4 -fast CSV drifted from testdata/fig4_fast.golden.csv:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// The sequential path must produce the identical CSV.
	seq, err := bgpchurn.Sweep(bgpchurn.Baseline, bgpchurn.SweepConfig{
		Sizes:        r.sizes(),
		TopologySeed: r.seed,
		Event:        r.experiment(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	table, _ := fig4Table(seq, floats(r.sizes()))
	var want bytes.Buffer
	if err := table.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("scheduler CSV differs from sequential sweep CSV:\nscheduler:\n%s\nsequential:\n%s", got, want.Bytes())
	}
}

// TestKillAndResumeByteIdenticalCSV is the crash-recovery property test:
// a run cancelled mid-grid leaves a journal from which a fresh process
// recomputes only the missing cells — and the resumed run's figure CSV is
// byte-identical to an uninterrupted run's.
func TestKillAndResumeByteIdenticalCSV(t *testing.T) {
	refDir, resDir := t.TempDir(), t.TempDir()
	journal := filepath.Join(t.TempDir(), "cells.journal")

	// Reference: uninterrupted run.
	ref := fastRunner(1)
	ref.outDir = refDir
	mustRun(t, ref, "4")
	want, err := os.ReadFile(filepath.Join(refDir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel the grid context as soon as the first cell
	// completes; in-flight cells drain, the rest are abandoned.
	interrupted := fastRunner(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted.ctx = ctx
	if _, _, err := interrupted.sched.AttachJournal(journal, false); err != nil {
		t.Fatal(err)
	}
	j := interrupted.sched.Journal()
	interrupted.sched.SubscribeCells(func(cs bgpchurn.CellStatus) {
		if cs.State == bgpchurn.CellDone {
			cancel()
		}
	})
	if ran, _, err := interrupted.runFigures(mustSelect(t, "4"), io.Discard); err != nil || len(ran) > 0 || !interrupted.interrupted {
		t.Fatalf("interrupted run: rendered %v, err %v, interrupted %v; want nothing rendered and the run marked interrupted",
			ran, err, interrupted.interrupted)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	checkpointed := j.Appended()
	if checkpointed < 1 || checkpointed >= len(interrupted.sizes()) {
		t.Fatalf("journal has %d cells, want a strict subset of %d", checkpointed, len(interrupted.sizes()))
	}

	// Resumed run in a "fresh process": new runner, journal replayed.
	resumed := fastRunner(1)
	resumed.outDir = resDir
	seeded, torn, err := resumed.sched.AttachJournal(journal, true)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.sched.Journal().Close()
	if torn {
		t.Fatal("cleanly closed journal reported a torn tail")
	}
	if seeded != checkpointed {
		t.Fatalf("AttachJournal seeded %d cells, journal had %d", seeded, checkpointed)
	}
	var resumedCells int
	resumed.sched.SubscribeCells(func(cs bgpchurn.CellStatus) {
		if cs.State == bgpchurn.CellResumed {
			resumedCells++
		}
	})
	mustRun(t, resumed, "4")
	if resumedCells != checkpointed {
		t.Fatalf("resumed-cell events = %d, want %d (every journaled cell a cache hit)", resumedCells, checkpointed)
	}
	st := resumed.sched.CacheStats()
	if st.Misses != len(resumed.sizes())-checkpointed {
		t.Fatalf("resumed run computed %d cells, want only the %d missing ones",
			st.Misses, len(resumed.sizes())-checkpointed)
	}

	got, err := os.ReadFile(filepath.Join(resDir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed CSV differs from uninterrupted run:\nresumed:\n%s\nreference:\n%s", got, want)
	}
}

// TestRunExitCodes drives the whole binary through its testable seam.
func TestRunExitCodes(t *testing.T) {
	// -shards is not a flag: the windowed executor's crew comes from the
	// core budget.
	for _, args := range [][]string{{"-no-such-flag"}, {"-fig", "4", "-shards", "2"}} {
		if code := run(context.Background(), args, io.Discard, io.Discard); code != exitUsage {
			t.Fatalf("%v: exit %d, want %d", args, code, exitUsage)
		}
	}
	// A selection that names an unknown figure, or nothing at all, is
	// rejected before any work — with the valid ids — not silently skipped.
	for _, sel := range []string{"nope", "4,13", "", "4,", " "} {
		var stderr bytes.Buffer
		code := run(context.Background(), []string{"-fig", sel, "-fast", "-manifest", "", "-journal", ""}, io.Discard, &stderr)
		if code != exitError {
			t.Fatalf("-fig %q: exit %d, want %d", sel, code, exitError)
		}
		if msg := stderr.String(); !strings.Contains(msg, "unknown figure") || !strings.Contains(msg, "table1,topo,1,4,5,6,7,8,9,10,11,12,cell,ext") {
			t.Fatalf("-fig %q: stderr %q does not name the unknown figure and the valid ids", sel, msg)
		}
	}
	// An unknown scenario, an impossible size, or a protocol configuration
	// no cell can run is rejected the same way: with the reason, before a
	// cell is logged or the journal created.
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	journal := filepath.Join(dir, "cells.journal")
	var code int
	for _, c := range []struct {
		args   []string
		reason string
	}{
		{[]string{"-fig", "4", "-link-delay", "-1ms"}, "negative LinkDelay"},
		{[]string{"-fig", "cell", "-scenario", "NOPE"}, "unknown scenario \"NOPE\" (known: ["},
		{[]string{"-fig", "cell", "-n", "0"}, "-n must be positive"},
		{[]string{"-fig", "table1", "-origins", "-5"}, "-origins must be non-negative, got -5"},
		{[]string{"-fig", "table1", "-parallel", "-3"}, "-parallel must be non-negative, got -3"},
		{[]string{"-fig", "table1", "-retries", "-1"}, "-retries must be non-negative, got -1"},
		{[]string{"-fig", "table1", "-cell-timeout", "-1s"}, "-cell-timeout must be non-negative, got -1s"},
	} {
		stdout.Reset()
		stderr.Reset()
		code = run(context.Background(), append(c.args, "-fast", "-manifest", "", "-journal", journal), &stdout, &stderr)
		if code != exitError {
			t.Fatalf("%v: exit %d, want %d", c.args, code, exitError)
		}
		if msg := stderr.String(); !strings.Contains(msg, c.reason) {
			t.Fatalf("%v: stderr %q does not give the reason %q", c.args, msg, c.reason)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: work began before the rejection:\n%s", c.args, stdout.String())
		}
		if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%v: journal created (stat: %v)", c.args, err)
		}
	}
	// Figure 1 runs no sweeps and ext four one-cell sweeps, so this exercises
	// the full pipeline — grid, journal, manifest, epilogue — quickly. Every
	// line of figure output goes to run's stdout writer, none to the
	// process's os.Stdout.
	manifest := filepath.Join(dir, "manifest.json")
	stdout.Reset()
	leaked := captureOSStdout(t, func() {
		code = run(context.Background(), []string{"-fig", "1,ext", "-fast", "-origins", "2", "-manifest", manifest, "-journal", journal}, &stdout, io.Discard)
	})
	if code != exitOK {
		t.Fatalf("fig 1,ext run: exit %d, want %d", code, exitOK)
	}
	if leaked != "" {
		t.Fatalf("fig 1,ext run wrote to os.Stdout instead of its writer:\n%s", leaked)
	}
	for _, want := range []string{"Mann-Kendall: S=", "Extensions at n=1000", "L-event WRATE"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("fig 1,ext stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	mf, err := bgpchurn.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Interrupted {
		t.Fatal("clean run marked interrupted")
	}
	if len(mf.Figures) != 2 || mf.Figures[0] != "1" || mf.Figures[1] != "ext" {
		t.Fatalf("manifest figures = %v", mf.Figures)
	}
	// ext's four cells went through the scheduler: each is journaled and
	// has a manifest entry.
	recs, truncated, err := core.LoadJournal(journal)
	if err != nil || truncated || len(recs) != 4 {
		t.Fatalf("journal: %d records, truncated=%v err=%v; want ext's 4 cells", len(recs), truncated, err)
	}
	if len(mf.Cells) != 4 || mf.Outcomes["ok"] != 4 {
		t.Fatalf("manifest cells = %+v, outcomes %v; want ext's 4 cells ok", mf.Cells, mf.Outcomes)
	}
	// A -resume rerun of the same figure also succeeds.
	if code := run(context.Background(), []string{"-fig", "1", "-fast", "-resume", "-manifest", "", "-journal", journal}, io.Discard, io.Discard); code != exitOK {
		t.Fatalf("resume rerun: exit %d, want %d", code, exitOK)
	}
}

// captureOSStdout runs fn with os.Stdout redirected to a pipe and returns
// what reached it.
func captureOSStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	fn()
	os.Stdout = orig
	w.Close()
	return <-read
}

func TestCellOutcomes(t *testing.T) {
	cells := []bgpchurn.CellTiming{
		{State: "done", Attempt: 1},
		{State: "done", Attempt: 3},
		{State: "retried", Attempt: 1}, // intermediate: not an outcome
		{State: "retried", Attempt: 2}, // intermediate: not an outcome
		{State: "cached"},
		{State: "resumed"},
		{State: "quarantined", Attempt: 2},
		{State: "cancelled"},
		{State: "failed"},
	}
	got := cellOutcomes(cells)
	want := map[string]int{
		"ok": 1, "retried": 1, "cached": 1, "resumed": 1,
		"quarantined": 1, "cancelled": 1, "failed": 1,
	}
	if len(got) != len(want) {
		t.Fatalf("outcomes = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("outcomes[%s] = %d, want %d (full: %v)", k, got[k], v, got)
		}
	}
	if cellOutcomes(nil) != nil {
		t.Fatal("empty cell list must fold to nil outcomes")
	}
}

func TestRecordCellSkipsStartAndConvertsFields(t *testing.T) {
	r := fastRunner(1)
	r.recordCell(bgpchurn.CellStatus{Scenario: "Baseline", N: 1000, State: bgpchurn.CellStart})
	if len(r.cells) != 0 {
		t.Fatal("start events must not appear in the manifest")
	}
	r.recordCell(bgpchurn.CellStatus{
		Scenario: "Baseline", N: 1000, Seed: 1001,
		State: bgpchurn.CellDone, Elapsed: 1500 * time.Millisecond,
	})
	r.recordCell(bgpchurn.CellStatus{
		Scenario: "Tree", N: 2000, Seed: 2001,
		State: bgpchurn.CellFailed, Err: errors.New("boom"),
	})
	if len(r.cells) != 2 {
		t.Fatalf("recorded %d cells, want 2", len(r.cells))
	}
	if c := r.cells[0]; c.Scenario != "Baseline" || c.N != 1000 || c.Seed != 1001 ||
		c.State != "done" || c.ElapsedMS != 1500 || c.Err != "" {
		t.Fatalf("done cell = %+v", c)
	}
	if c := r.cells[1]; c.State != "failed" || c.Err != "boom" {
		t.Fatalf("failed cell = %+v", c)
	}
}

// TestWriteManifestEndToEnd runs a real (fast, fig 4) instrumented sweep
// and checks the written manifest against the scheduler's own accounting:
// cache counts, per-cell entries, and the counter snapshot.
func TestWriteManifestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	r := fastRunner(1)
	r.outDir = dir
	r.metrics = bgpchurn.NewObsMetrics()
	r.sched.SetObs(r.metrics)
	r.sched.SubscribeCells(r.recordCell)
	mustRun(t, r, "4")

	path := filepath.Join(dir, "manifest.json")
	cfgMap := map[string]string{"fast": "true", "seed": "1"}
	if err := r.writeManifest(path, cfgMap, []string{"4"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	mf, err := bgpchurn.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if mf.SchemaVersion != obs.ManifestSchemaVersion || mf.Seed != 1 || mf.Config["fast"] != "true" ||
		len(mf.Figures) != 1 || mf.Figures[0] != "4" {
		t.Fatalf("manifest header = %+v", mf)
	}
	st := r.sched.CacheStats()
	if mf.Cache.Hits != st.Hits || mf.Cache.Misses != st.Misses || mf.Cache.Evictions != st.Evictions {
		t.Fatalf("manifest cache %+v != scheduler stats %+v", mf.Cache, st)
	}
	if len(mf.Cells) != len(r.sizes()) {
		t.Fatalf("manifest has %d cells, want one per sweep size (%d)", len(mf.Cells), len(r.sizes()))
	}
	for _, c := range mf.Cells {
		if c.State != "done" || c.Scenario != bgpchurn.Baseline.Name || c.Seed == 0 {
			t.Fatalf("unexpected cell entry: %+v", c)
		}
	}
	if got := mf.Counters["bgpchurn_core_cells_computed_total"]; got != float64(st.Misses) {
		t.Fatalf("cells_computed counter = %v, want %d", got, st.Misses)
	}
	if mf.Counters["bgpchurn_bgp_updates_processed_total"] <= 0 {
		t.Fatal("no processed updates in manifest counter snapshot")
	}
	if mf.WallSeconds != 2 {
		t.Fatalf("wall seconds = %v", mf.WallSeconds)
	}
}

// TestRunWritesSpanAndMetricsArtifacts drives the binary seam with the
// observability flags: -spans and -chrome-trace must produce parseable
// span artifacts, -metrics-out a Prometheus-text snapshot, and the
// manifest must record all three paths in its flag map.
func TestRunWritesSpanAndMetricsArtifacts(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.jsonl")
	chrome := filepath.Join(dir, "chrome.json")
	metrics := filepath.Join(dir, "metrics.txt")
	manifest := filepath.Join(dir, "manifest.json")
	code := run(context.Background(), []string{
		"-fig", "4", "-fast", "-origins", "3", "-seed", "1",
		"-spans", spans, "-chrome-trace", chrome, "-metrics-out", metrics,
		"-manifest", manifest, "-journal", "",
	}, io.Discard, io.Discard)
	if code != exitOK {
		t.Fatalf("run: exit %d, want %d", code, exitOK)
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := bgpchurn.ReadSpanJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	levels := map[string]int{}
	for _, s := range recs {
		levels[s.Level]++
	}
	// 3 cells × 3 origins × (withdraw + announce + origin) + 3 cell + 1 sweep.
	if levels[bgpchurn.SpanEvent] != 18 || levels[bgpchurn.SpanOrigin] != 9 ||
		levels[bgpchurn.SpanCell] != 3 || levels[bgpchurn.SpanSweep] != 1 {
		t.Fatalf("span level counts = %v", levels)
	}

	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte("bgpchurn_bgp_updates_processed_total")) {
		t.Fatalf("metrics snapshot missing update counter:\n%s", snap)
	}

	mf, err := bgpchurn.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for flagName, want := range map[string]string{
		"spans": spans, "chrome-trace": chrome, "metrics-out": metrics,
	} {
		if got := mf.Config[flagName]; got != want {
			t.Fatalf("manifest config[%s] = %q, want %q", flagName, got, want)
		}
	}
}

// readCSV parses a CSV file the runner wrote.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCellMatchesGrid pins the cell id to the grid it reads: beside figs 4,
// 5 and 12 the Baseline n=1000 cell computes nothing of its own (its two
// cells are the grid's only cache hits), and its NO-WRATE U and
// per-relation split equal the n=1000 rows of fig4.csv and fig5_*.csv.
func TestCellMatchesGrid(t *testing.T) {
	dir := t.TempDir()
	r := fastRunner(1)
	r.outDir = dir
	mustRun(t, r, "4,5,12,cell")
	if st := r.sched.CacheStats(); st.Misses != 2*len(r.sizes()) || st.Hits != 2 {
		t.Fatalf("stats = %+v, want %d cells computed and the cell's 2 served from the grid", st, 2*len(r.sizes()))
	}

	// Grid values at n=1000, keyed by column name (T, Uc(T), Ud(M), ...).
	grid := map[string]string{}
	for _, name := range []string{"fig4", "fig5_top", "fig5_bottom"} {
		rows := readCSV(t, filepath.Join(dir, name+".csv"))
		if rows[1][0] != "1000" {
			t.Fatalf("%s first row is n=%s, want 1000", name, rows[1][0])
		}
		for i, col := range rows[0] {
			grid[col] = rows[1][i]
		}
	}
	compared := 0
	for _, row := range readCSV(t, filepath.Join(dir, "cell_u.csv"))[1:] {
		// variant, type, nodes, U, ±95%, Uc, Up, Ud
		if row[0] != "NO-WRATE" {
			continue
		}
		typ := row[1]
		for col, got := range map[string]string{
			typ: row[3], "Uc(" + typ + ")": row[5], "Up(" + typ + ")": row[6], "Ud(" + typ + ")": row[7],
		} {
			if want, ok := grid[col]; ok {
				compared++
				if got != want {
					t.Errorf("cell %s = %s, grid = %s", col, got, want)
				}
			}
		}
	}
	if compared != 9 {
		t.Fatalf("compared %d values, want 9 (U of 4 types, Uc/Up of T, Ud/Up/Uc of M)", compared)
	}
}

// TestTable1MatchesCommittedCSV renders table1 at seed 1 over the paper's
// sizes and compares it byte for byte with results/table1.csv.
func TestTable1MatchesCommittedCSV(t *testing.T) {
	dir := t.TempDir()
	r := &runner{scenario: bgpchurn.Baseline, seed: 1, outDir: dir, stdout: io.Discard}
	if err := r.table1(nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("table1 drifted from results/table1.csv:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFastGoldenCSVs pins every CSV of `experiments -fig all -fast -seed 1`
// byte for byte to testdata/fast, recorded before the figures read their
// sweeps from the run's one grid. A file the run adds or drops fails too.
func TestFastGoldenCSVs(t *testing.T) {
	dir := t.TempDir()
	code := run(context.Background(), []string{"-fig", "all", "-fast", "-seed", "1", "-out", dir,
		"-manifest", "", "-journal", ""}, io.Discard, io.Discard)
	if code != exitOK {
		t.Fatalf("run: exit %d, want %d", code, exitOK)
	}
	want, err := filepath.Glob(filepath.Join("testdata", "fast", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != 25 {
		t.Fatalf("run wrote %d CSVs, testdata/fast holds %d, want 25", len(got), len(want))
	}
	for _, golden := range want {
		name := filepath.Base(golden)
		w, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s drifted from testdata/fast:\ngot:\n%s\nwant:\n%s", name, g, w)
		}
	}
}

// TestQuarantinedFigureSkipped drives the quarantine path end to end: with
// a deadline no cell can meet, every Baseline cell is quarantined, so
// figure 4 is skipped with a reason on stderr while table1, which runs no
// cells, still renders, and the run exits 3.
func TestQuarantinedFigureSkipped(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-fig", "4,table1", "-fast", "-cell-timeout", "1ns",
		"-out", dir, "-manifest", "", "-journal", ""}, &stdout, &stderr)
	if code != exitQuarantined {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitQuarantined, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "figure 4 skipped (quarantined cell): cell BASELINE n=1000 quarantined after 1 attempts") ||
		!strings.Contains(msg, "figures skipped due to quarantined cells: 4\n") {
		t.Fatalf("stderr does not report figure 4 skipped:\n%s", msg)
	}
	if !strings.Contains(stdout.String(), "Table 1: realized parameters, BASELINE") {
		t.Fatalf("table1 did not render:\n%s", stdout.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.csv")); err != nil {
		t.Fatalf("table1.csv: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.csv")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fig4.csv written for a skipped figure (stat: %v)", err)
	}
}

// TestCellSinksPrintOneRecord feeds scheduler events of every state
// through the run's three cell sinks — the /progress feed, the
// -log-format json cell log and the manifest — and requires each to carry
// the event's record byte for byte: json.Marshal(cs.Record()), start
// excepted in the manifest.
func TestCellSinksPrintOneRecord(t *testing.T) {
	stub := func(s *bgpchurn.Scheduler) {
		s.SetCompute(
			func(sc bgpchurn.Scenario, n int, seed uint64) (*bgpchurn.Topology, error) {
				return &bgpchurn.Topology{Nodes: make([]topology.Node, n), Seed: seed}, nil
			},
			func(ctx context.Context, tp *bgpchurn.Topology, cfg bgpchurn.Experiment) (*bgpchurn.Result, error) {
				switch len(tp.Nodes) {
				case 2:
					return nil, errors.New("boom")
				case 3:
					panic("flaky")
				}
				return &bgpchurn.Result{N: len(tp.Nodes), Origins: cfg.Origins}, nil
			})
	}
	r := fastRunner(1)
	ev := r.experiment(false)

	// A journal holding the n=1 cell, so the run's scheduler resumes it.
	journal := filepath.Join(t.TempDir(), "cells.journal")
	prior := bgpchurn.NewScheduler(1)
	stub(prior)
	if _, _, err := prior.AttachJournal(journal, false); err != nil {
		t.Fatal(err)
	}
	prior.Cell(context.Background(), bgpchurn.Baseline, 1, r.seed, ev)
	if err := prior.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	s := r.sched
	stub(s)
	s.SetRetryPolicy(1, time.Nanosecond)
	if seeded, _, err := s.AttachJournal(journal, true); err != nil || seeded != 1 {
		t.Fatalf("resume seeded %d cells (err %v), want 1", seeded, err)
	}
	defer s.Journal().Close()

	// The three sinks, wired as run wires them.
	broker := obs.NewProgressBroker()
	hs := httptest.NewServer(broker)
	defer hs.Close()
	defer broker.Close()
	s.PublishProgress(broker)
	var logged bytes.Buffer
	logCell, err := report.NewCellLogger(&logged, "json")
	if err != nil {
		t.Fatal(err)
	}
	s.SubscribeCells(func(cs bgpchurn.CellStatus) {
		r.recordCell(cs)
		logCell(cs.Record())
	})
	var want, wantManifest []string
	states := map[bgpchurn.CellState]int{}
	s.SubscribeCells(func(cs bgpchurn.CellStatus) {
		b, err := json.Marshal(cs.Record())
		if err != nil {
			t.Error(err)
		}
		want = append(want, string(b))
		if cs.State != bgpchurn.CellStart {
			wantManifest = append(wantManifest, string(b))
		}
		states[cs.State]++
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream := bufio.NewScanner(resp.Body)
	// The banner follows the subscription, so no event can precede it.
	if !stream.Scan() || !strings.HasPrefix(stream.Text(), ":") {
		t.Fatalf("missing stream banner: %q", stream.Text())
	}

	s.Cell(ctx, bgpchurn.Baseline, 1, r.seed, ev) // resumed
	s.Cell(ctx, bgpchurn.Baseline, 4, r.seed, ev) // start, done
	s.Cell(ctx, bgpchurn.Baseline, 4, r.seed, ev) // cached
	s.Cell(ctx, bgpchurn.Baseline, 2, r.seed, ev) // start, failed
	s.Cell(ctx, bgpchurn.Baseline, 3, r.seed, ev) // start, retried, quarantined
	cancelled, stop := context.WithCancel(ctx)
	stop()
	s.Cell(cancelled, bgpchurn.Baseline, 5, r.seed, ev) // cancelled
	for st := bgpchurn.CellStart; st <= bgpchurn.CellCancelled; st++ {
		if states[st] == 0 {
			t.Fatalf("no %s event among %v", st, states)
		}
	}

	var progress []string
	event := ""
	for len(progress) < len(want) && stream.Scan() {
		line := stream.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "cell":
			progress = append(progress, strings.TrimPrefix(line, "data: "))
		}
	}
	var manifest []string
	for _, c := range r.cells {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		manifest = append(manifest, string(b))
	}
	for _, sink := range []struct {
		name      string
		got, want []string
	}{
		{"/progress", progress, want},
		{"-log-format json", strings.Split(strings.TrimSuffix(logged.String(), "\n"), "\n"), want},
		{"manifest", manifest, wantManifest},
	} {
		if strings.Join(sink.got, "\n") != strings.Join(sink.want, "\n") {
			t.Errorf("%s records differ from cs.Record():\n--- got ---\n%s\n--- want ---\n%s",
				sink.name, strings.Join(sink.got, "\n"), strings.Join(sink.want, "\n"))
		}
	}
}
