package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bgpchurn"
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
	if cfg.Origins != 20 || cfg.BGP.RateLimitWithdrawals || cfg.Parallelism != 2 {
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
	return &runner{seed: seed, fast: true, sched: bgpchurn.NewScheduler(0), stdout: io.Discard}
}

func TestSweepCaching(t *testing.T) {
	// Figures requesting the same sweep must share the scheduler's cells:
	// the second sweep() is pure cache traffic and returns equal results.
	r := fastRunner(3)
	first, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		t.Fatal(err)
	}
	st := r.sched.CacheStats()
	if st.Misses != len(r.sizes()) || st.Hits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	second, err := r.sweep(bgpchurn.Baseline, false)
	if err != nil {
		t.Fatal(err)
	}
	st = r.sched.CacheStats()
	if st.Misses != len(r.sizes()) || st.Hits != len(r.sizes()) {
		t.Fatalf("warm stats = %+v, want every cell served from cache", st)
	}
	for i := range first.Points {
		if first.Points[i].R != second.Points[i].R {
			t.Fatalf("cell n=%d recomputed", first.Points[i].N)
		}
	}
}

func TestFigSweepsCoverAllFigures(t *testing.T) {
	for _, id := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "12"} {
		if len(figSweeps(id)) == 0 {
			t.Errorf("figure %s declares no sweeps", id)
		}
	}
	for _, id := range []string{"1", "ext"} {
		if len(figSweeps(id)) != 0 {
			t.Errorf("figure %s should declare no sweeps", id)
		}
	}
	// Fig. 12 needs both protocol variants of the Baseline sweep.
	v := figSweeps("12")
	if len(v) != 2 || v[0].wrate == v[1].wrate {
		t.Fatalf("fig 12 sweeps = %+v", v)
	}
}

func TestPrefetchDeduplicatesSharedSweeps(t *testing.T) {
	// Figures 4 and 6 share the Baseline NO-WRATE sweep: prefetching both
	// must compute each cell exactly once.
	r := fastRunner(1)
	if err := r.prefetch(map[string]bool{"4": true, "6": true}); err != nil {
		t.Fatal(err)
	}
	st := r.sched.CacheStats()
	if st.Misses != len(r.sizes()) || st.Hits != 0 {
		t.Fatalf("prefetch stats = %+v, want %d unique cells and no duplicates", st, len(r.sizes()))
	}
	// Rendering the figures afterwards is pure cache traffic.
	if _, err := r.sweep(bgpchurn.Baseline, false); err != nil {
		t.Fatal(err)
	}
	st = r.sched.CacheStats()
	if st.Misses != len(r.sizes()) {
		t.Fatalf("figure render recomputed cells: %+v", st)
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
	if err := r.fig4(); err != nil {
		t.Fatal(err)
	}
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
	if err := ref.fig4(); err != nil {
		t.Fatal(err)
	}
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
	j, err := bgpchurn.OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	interrupted.sched.SetJournal(j)
	interrupted.sched.OnCell = func(cs bgpchurn.CellStatus) {
		if cs.State == bgpchurn.CellDone {
			cancel()
		}
	}
	if err := interrupted.fig4(); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
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
	recs, truncated, err := bgpchurn.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("cleanly closed journal reported a torn tail")
	}
	if got := resumed.sched.Resume(recs); got != checkpointed {
		t.Fatalf("Resume seeded %d cells, journal had %d", got, checkpointed)
	}
	var resumedCells int
	resumed.sched.OnCell = func(cs bgpchurn.CellStatus) {
		if cs.State == bgpchurn.CellResumed {
			resumedCells++
		}
	}
	if err := resumed.fig4(); err != nil {
		t.Fatal(err)
	}
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
	if code := run([]string{"-no-such-flag"}, io.Discard, io.Discard); code != exitUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, exitUsage)
	}
	// A selection that names an unknown figure, or nothing at all, is
	// rejected before any work — with the valid ids — not silently skipped.
	for _, sel := range []string{"nope", "4,13", "", "4,", " "} {
		var stderr bytes.Buffer
		code := run([]string{"-fig", sel, "-fast", "-manifest", "", "-journal", ""}, io.Discard, &stderr)
		if code != exitError {
			t.Fatalf("-fig %q: exit %d, want %d", sel, code, exitError)
		}
		if msg := stderr.String(); !strings.Contains(msg, "unknown figure") || !strings.Contains(msg, "1,4,5,6,7,8,9,10,11,12,ext") {
			t.Fatalf("-fig %q: stderr %q does not name the unknown figure and the valid ids", sel, msg)
		}
	}
	// Figure 1 runs no sweeps, so this exercises the full pipeline —
	// journal, manifest, epilogue — in milliseconds.
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	journal := filepath.Join(dir, "cells.journal")
	code := run([]string{"-fig", "1", "-fast", "-manifest", manifest, "-journal", journal}, io.Discard, io.Discard)
	if code != exitOK {
		t.Fatalf("fig 1 run: exit %d, want %d", code, exitOK)
	}
	mf, err := bgpchurn.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Interrupted {
		t.Fatal("clean run marked interrupted")
	}
	if len(mf.Figures) != 1 || mf.Figures[0] != "1" {
		t.Fatalf("manifest figures = %v", mf.Figures)
	}
	// The journal was created with a valid header even though no cells ran.
	recs, truncated, err := bgpchurn.LoadJournal(journal)
	if err != nil || truncated || len(recs) != 0 {
		t.Fatalf("fresh journal: recs=%v truncated=%v err=%v", recs, truncated, err)
	}
	// A -resume rerun of the same figure also succeeds.
	if code := run([]string{"-fig", "1", "-fast", "-resume", "-manifest", "", "-journal", journal}, io.Discard, io.Discard); code != exitOK {
		t.Fatalf("resume rerun: exit %d, want %d", code, exitOK)
	}
}

func TestCellOutcomes(t *testing.T) {
	cells := []bgpchurn.CellTiming{
		{State: "done"},
		{State: "done", Attempts: 3},
		{State: "retried", Attempts: 1}, // intermediate: not an outcome
		{State: "retried", Attempts: 2}, // intermediate: not an outcome
		{State: "cached"},
		{State: "resumed"},
		{State: "quarantined", Attempts: 2},
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
	r.sched.OnCell = r.recordCell
	if err := r.fig4(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "manifest.json")
	cfgMap := map[string]string{"fast": "true", "seed": "1"}
	if err := r.writeManifest(path, cfgMap, []string{"4"}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	mf, err := bgpchurn.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if mf.SchemaVersion != 1 || mf.Seed != 1 || mf.Config["fast"] != "true" ||
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
	code := run([]string{
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

// TestSecondSignalForcesExit exercises the double-^C path: once the grid
// context is cancelled (the first signal), the watcher re-arms delivery and
// the next SIGINT forces an immediate exit with code 130 through the
// exitNow seam.
func TestSecondSignalForcesExit(t *testing.T) {
	// Keep SIGINT from killing the test process while the watcher races to
	// register its own handler.
	guard := make(chan os.Signal, 8)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)

	codes := make(chan int, 1)
	old := exitNow
	exitNow = func(code int) { codes <- code }
	defer func() { exitNow = old }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var errBuf bytes.Buffer
	disarm := armSecondSignalExit(ctx, &errBuf)
	defer disarm()

	cancel() // the "first signal": grid context cancelled

	// The watcher registers its signal channel asynchronously after the
	// context fires, so resend until one lands post-registration.
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case code := <-codes:
			if code != exitInterrupted {
				t.Fatalf("forced exit code = %d, want %d", code, exitInterrupted)
			}
			return
		case <-tick.C:
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				t.Fatalf("kill: %v", err)
			}
		case <-deadline:
			t.Fatal("second signal never forced an exit")
		}
	}
}
