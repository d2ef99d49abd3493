package core

// The determinism/race test tier. These tests are deliberately small and
// run in -short mode: they exist so `go test -race ./...` (the race tier of
// the verify pipeline, see Makefile and README) exercises every concurrent
// code path — the grid scheduler's worker pool and singleflight cache, and
// RunCEvents' origin-level parallelism — under the race detector.

import (
	"context"
	"io"
	"sync"
	"testing"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// TestRaceConcurrentSweepsShareOneCache hammers a single scheduler from
// several goroutines requesting overlapping grids: the cache must stay
// race-free, compute each unique cell once, and hand every caller
// byte-identical results.
func TestRaceConcurrentSweepsShareOneCache(t *testing.T) {
	s := NewScheduler(4)
	s.SubscribeCells(func(CellStatus) {}) // exercise the emit path too
	cfg := SweepConfig{Sizes: []int{150, 250}, TopologySeed: 13, Event: testConfig(13, 3)}

	const callers = 4
	results := make([]*SweepResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.RunSweep(context.Background(), scenario.Baseline, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got, want := fingerprintSweep(results[i]), fingerprintSweep(results[0]); got != want {
			t.Fatalf("caller %d saw different results", i)
		}
	}
	st := s.CacheStats()
	if st.Misses != len(cfg.Sizes) {
		t.Fatalf("computed %d cells, want %d (rest must coalesce)", st.Misses, len(cfg.Sizes))
	}
	if st.Hits != (callers-1)*len(cfg.Sizes) {
		t.Fatalf("cache hits = %d, want %d", st.Hits, (callers-1)*len(cfg.Sizes))
	}
}

// TestRaceGridAcrossScenarios runs a multi-scenario grid on a wide pool so
// distinct cells race against each other in the pool and the cache map.
func TestRaceGridAcrossScenarios(t *testing.T) {
	s := NewScheduler(8)
	ev := testConfig(17, 3)
	wrate := ev
	wrate.BGP = bgp.WRATEConfig(17)
	reqs := []GridRequest{
		{Scenario: scenario.Baseline, Sizes: []int{150, 250}, TopologySeed: 17, Event: ev},
		{Scenario: scenario.Tree, Sizes: []int{150, 250}, TopologySeed: 17, Event: ev},
		{Scenario: scenario.Baseline, Sizes: []int{150, 250}, TopologySeed: 17, Event: wrate},
	}
	out, err := s.RunGrid(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range out {
		if len(sr.Points) != 2 {
			t.Fatalf("request %d: %d points", i, len(sr.Points))
		}
	}
}

// TestRaceOnCellSerialized documents and enforces the SubscribeCells
// contract: the scheduler serializes all deliveries, so a subscriber may
// mutate plain (unsynchronized) state. The callback below deliberately uses
// a bare int and slice append — if two workers ever delivered concurrently,
// the race detector would flag it and the count would drift.
func TestRaceOnCellSerialized(t *testing.T) {
	s := NewScheduler(8)
	var calls int          // intentionally unsynchronized
	var states []CellState // ditto
	s.SubscribeCells(func(cs CellStatus) {
		calls++
		states = append(states, cs.State)
	})
	ev := testConfig(23, 3)
	reqs := []GridRequest{
		{Scenario: scenario.Baseline, Sizes: []int{150, 250}, TopologySeed: 23, Event: ev},
		{Scenario: scenario.Tree, Sizes: []int{150, 250}, TopologySeed: 23, Event: ev},
	}
	if _, err := s.RunGrid(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	// 4 unique cells, each emitting a start and a done event.
	if calls != 8 || len(states) != 8 {
		t.Fatalf("subscriber fired %d times with %d recorded states, want 8/8", calls, len(states))
	}
}

// TestRaceObsScrapeDuringGrid runs a grid with instrumentation attached
// while a goroutine continuously scrapes the Prometheus exposition and
// snapshot — the reader/writer paths of the sharded counters and
// histograms must be race-free.
func TestRaceObsScrapeDuringGrid(t *testing.T) {
	m := obs.New()
	s := NewScheduler(4)
	s.SetObs(m)
	ev := testConfig(29, 3)
	ev.Obs = m

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.WritePrometheus(io.Discard)
				m.Snapshot()
			}
		}
	}()

	cfg := SweepConfig{Sizes: []int{150, 250}, TopologySeed: 29, Event: ev}
	_, err := s.RunSweep(context.Background(), scenario.Baseline, cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap["bgpchurn_core_cells_computed_total"] != 2 {
		t.Fatalf("cells_computed = %v, want 2", snap["bgpchurn_core_cells_computed_total"])
	}
	if snap["bgpchurn_bgp_updates_processed_total"] <= 0 {
		t.Fatal("no BGP updates counted while instrumented")
	}
}

// TestRaceCancellationMidGrid cancels a wide grid while many workers are
// in flight: the drain path, the cancelled-cell cache removal, and the
// cancellation-latency watcher must all be race-free, and a subsequent run
// on the same scheduler must complete every cell.
func TestRaceCancellationMidGrid(t *testing.T) {
	m := obs.New()
	s := NewScheduler(8)
	s.SetObs(m)
	s.SubscribeCells(func(CellStatus) {})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var once sync.Once
	prev := s.run
	s.run = func(ctx context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
		once.Do(func() { cancel(); close(done) }) // cancel as the first cell computes
		return prev(ctx, topo, cfg)
	}
	sizes := []int{150, 170, 190, 210, 230, 250}
	_, err := s.RunGrid(ctx, []GridRequest{
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 31, Event: testConfig(31, 2)},
		{Scenario: scenario.Tree, Sizes: sizes, TopologySeed: 31, Event: testConfig(31, 2)},
	})
	<-done
	if err == nil {
		t.Fatal("cancelled grid returned no error")
	}
	// The same scheduler finishes the grid under a live context; cells the
	// first pass completed are hits, cancelled ones recompute.
	out, err := s.RunGrid(context.Background(), []GridRequest{
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 31, Event: testConfig(31, 2)},
		{Scenario: scenario.Tree, Sizes: sizes, TopologySeed: 31, Event: testConfig(31, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range out {
		if len(sr.Points) != len(sizes) {
			t.Fatalf("request %d incomplete after resume: %d points", i, len(sr.Points))
		}
	}
}

// TestRaceOriginParallelism drives RunCEvents' per-origin worker pool —
// the accumulator array and the per-worker Network reuse — under the race
// detector, at a worker count exceeding the origin count.
func TestRaceOriginParallelism(t *testing.T) {
	topo, err := scenario.Baseline.Generate(200, 19)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(19, 6)
	cfg.Parallelism = 8
	res, err := RunCEvents(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalUpdates <= 0 {
		t.Fatal("no updates measured")
	}
}
