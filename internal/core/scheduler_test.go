package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/des"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// fingerprintSweep renders a sweep's full numeric content (Result is a
// pure value type once dereferenced), so equal fingerprints mean
// byte-identical results.
func fingerprintSweep(sw *SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", sw.Scenario)
	for _, p := range sw.Points {
		fmt.Fprintf(&b, "%d %+v\n", p.N, *p.R)
	}
	return b.String()
}

// countCalls wraps the scheduler's generate/run seams with atomic counters.
func countCalls(s *Scheduler) (gens, runs *int64) {
	gens, runs = new(int64), new(int64)
	gen, run := s.generate, s.run
	s.generate = func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
		atomic.AddInt64(gens, 1)
		return gen(sc, n, seed)
	}
	s.run = func(ctx context.Context, t *topology.Topology, cfg Config) (*Result, error) {
		atomic.AddInt64(runs, 1)
		return run(ctx, t, cfg)
	}
	return gens, runs
}

func TestGridSharedSweepComputedOnce(t *testing.T) {
	// Two figures requesting the identical Baseline sweep plus one WRATE
	// request: the shared cells must be generated and simulated exactly
	// once each, and cache hits must return results equal to the misses.
	s := NewScheduler(4)
	gens, runs := countCalls(s)

	ev := testConfig(3, 4)
	wrateEv := ev
	wrateEv.BGP = bgp.WRATEConfig(3)
	sizes := []int{150, 250}
	reqs := []GridRequest{
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 3, Event: ev},      // "fig 4"
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 3, Event: ev},      // "fig 6", same sweep
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 3, Event: wrateEv}, // "fig 12", distinct cells
	}
	out, err := s.RunGrid(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d sweep results", len(out))
	}
	const unique = 4 // 2 sizes x {NO-WRATE, WRATE}
	if got := atomic.LoadInt64(gens); got != unique {
		t.Fatalf("topology generated %d times, want %d (one per unique cell)", got, unique)
	}
	if got := atomic.LoadInt64(runs); got != unique {
		t.Fatalf("C-event experiment ran %d times, want %d (one per unique cell)", got, unique)
	}
	st := s.CacheStats()
	if st.Misses != unique || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 4 misses / 2 hits", st)
	}
	// The shared sweep's points must be the very same results.
	for i := range out[0].Points {
		if out[0].Points[i].R != out[1].Points[i].R {
			t.Fatalf("shared cell n=%d not served from cache", out[0].Points[i].N)
		}
	}
	// WRATE cells must NOT collide with NO-WRATE cells.
	for i := range out[0].Points {
		if out[0].Points[i].R == out[2].Points[i].R {
			t.Fatalf("WRATE cell n=%d wrongly shared with NO-WRATE", out[0].Points[i].N)
		}
	}

	// A cache hit must equal a fresh miss: rerun the first request on a
	// cold scheduler and compare deeply.
	cold, err := NewScheduler(1).RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: sizes, TopologySeed: 3, Event: ev})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: sizes, TopologySeed: 3, Event: ev})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(runs); got != unique {
		t.Fatalf("warm RunSweep recomputed: %d runs, want still %d", got, unique)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cache hit differs from cache miss for identical config")
	}
}

func TestShardCountExcludedFromCacheKey(t *testing.T) {
	// The engine ignores BGP.Shards, so cells differing only in it must
	// dedupe to one cache entry — while LinkDelay, a model parameter, must
	// keep distinct cells distinct.
	ev := testConfig(5, 3)
	ev.BGP.LinkDelay = 10 * des.Millisecond
	sharded := ev
	sharded.BGP.Shards = 4
	classic := testConfig(5, 3) // LinkDelay 0
	if cellKey("BASELINE", 200, 5, ev) != cellKey("BASELINE", 200, 5, sharded) {
		t.Fatal("cell keys differ across shard counts")
	}
	if cellKey("BASELINE", 200, 5, ev) == cellKey("BASELINE", 200, 5, classic) {
		t.Fatal("cell keys collide across link delays")
	}

	s := NewScheduler(2)
	_, runs := countCalls(s)
	sizes := []int{150}
	out, err := s.RunGrid(context.Background(), []GridRequest{
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 5, Event: ev},
		{Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 5, Event: sharded},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(runs); got != 1 {
		t.Fatalf("grid ran %d cells, want 1 (shards=1 and shards=4 share a key)", got)
	}
	if out[0].Points[0].R != out[1].Points[0].R {
		t.Fatal("sharded cell not served from the unsharded cell's cache entry")
	}
}

func TestScheduledSweepMatchesSequential(t *testing.T) {
	cfg := SweepConfig{Sizes: []int{150, 250}, TopologySeed: 11, Event: testConfig(11, 4)}
	seq, err := Sweep(scenario.Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		sched, err := NewScheduler(par).RunSweep(context.Background(), scenario.Baseline, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Byte-identical: the rendered forms must match exactly.
		want, got := fingerprintSweep(seq), fingerprintSweep(sched)
		if want != got {
			t.Fatalf("parallelism %d: scheduled sweep differs from sequential:\nseq:   %s\nsched: %s", par, want, got)
		}
	}
}

func TestSweepPartialResultsOnError(t *testing.T) {
	// Baseline at n=2 cannot host 4-6 tier-1 nodes, so that size always
	// fails; the sweep must keep the completed points and name the cell.
	sw, err := Sweep(scenario.Baseline, SweepConfig{
		Sizes: []int{150, 2}, TopologySeed: 5, Event: testConfig(5, 3),
	})
	if err == nil {
		t.Fatal("failing size not reported")
	}
	if !strings.Contains(err.Error(), "BASELINE at n=2") {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
	if sw == nil || len(sw.Points) != 1 || sw.Points[0].N != 150 {
		t.Fatalf("partial results lost: %+v", sw)
	}
}

func TestGridReportsFailingCell(t *testing.T) {
	s := NewScheduler(2)
	var failed []CellStatus
	s.SubscribeCells(func(cs CellStatus) {
		if cs.State == CellFailed {
			failed = append(failed, cs)
		}
	})
	out, err := s.RunGrid(context.Background(), []GridRequest{{
		Scenario: scenario.Baseline, Sizes: []int{150, 2, 250}, TopologySeed: 5, Event: testConfig(5, 3),
	}})
	if err == nil {
		t.Fatal("failing cell not reported")
	}
	if !strings.Contains(err.Error(), "BASELINE at n=2") {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
	// The healthy cells must survive, in size order.
	if len(out) != 1 || len(out[0].Points) != 2 || out[0].Points[0].N != 150 || out[0].Points[1].N != 250 {
		t.Fatalf("partial grid results wrong: %+v", out[0])
	}
	if len(failed) != 1 || failed[0].Scenario != "BASELINE" || failed[0].N != 2 || failed[0].Err == nil {
		t.Fatalf("failure events = %+v", failed)
	}
}

func TestSchedulerProgressEvents(t *testing.T) {
	s := NewScheduler(2)
	type ev struct {
		state CellState
		n     int
	}
	var events []ev
	s.SubscribeCells(func(cs CellStatus) {
		if cs.Scenario != "TREE" {
			t.Errorf("event scenario = %q", cs.Scenario)
		}
		events = append(events, ev{cs.State, cs.N})
	})
	cfg := SweepConfig{Sizes: []int{150, 250}, TopologySeed: 7, Event: testConfig(7, 3)}
	if _, err := s.RunSweep(context.Background(), scenario.Tree, cfg); err != nil {
		t.Fatal(err)
	}
	counts := map[CellState]int{}
	for _, e := range events {
		counts[e.state]++
	}
	if counts[CellStart] != 2 || counts[CellDone] != 2 || counts[CellFailed] != 0 {
		t.Fatalf("event counts = %v", counts)
	}
	// A second identical sweep must be all cache hits.
	events = nil
	if _, err := s.RunSweep(context.Background(), scenario.Tree, cfg); err != nil {
		t.Fatal(err)
	}
	counts = map[CellState]int{}
	for _, e := range events {
		counts[e.state]++
	}
	if counts[CellCached] != 2 || counts[CellStart] != 0 {
		t.Fatalf("warm event counts = %v", counts)
	}
}

func TestSchedulerErrorPaths(t *testing.T) {
	s := NewScheduler(1)
	if _, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := s.RunGrid(context.Background(), []GridRequest{{Scenario: scenario.Baseline}}); err == nil {
		t.Fatal("empty grid request accepted")
	}
	// Failed cells are cached too: the second request must not recompute
	// but must still return the error.
	gens, _ := countCalls(s)
	req := GridRequest{Scenario: scenario.Baseline, Sizes: []int{2}, TopologySeed: 1, Event: testConfig(1, 3)}
	_, err1 := s.RunGrid(context.Background(), []GridRequest{req})
	_, err2 := s.RunGrid(context.Background(), []GridRequest{req})
	if err1 == nil || err2 == nil {
		t.Fatal("failing cell not reported")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached error differs: %v vs %v", err1, err2)
	}
	if got := atomic.LoadInt64(gens); got != 1 {
		t.Fatalf("failed cell recomputed %d times", got)
	}
}

func TestCellStateStrings(t *testing.T) {
	for want, st := range map[string]CellState{
		"start": CellStart, "done": CellDone, "cached": CellCached, "failed": CellFailed,
	} {
		if st.String() != want {
			t.Errorf("%v.String() = %q", uint8(st), st.String())
		}
	}
	if CellState(99).String() == "" {
		t.Error("unknown state renders empty")
	}
}

func TestRunGridInjectedRunError(t *testing.T) {
	// Fault injection through the run seam: an error from the experiment
	// layer (not topology generation) must carry the cell name too.
	s := NewScheduler(2)
	boom := errors.New("boom")
	s.run = func(_ context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
		if topo.N() >= 250 {
			return nil, boom
		}
		return RunCEvents(topo, cfg)
	}
	out, err := s.RunGrid(context.Background(), []GridRequest{{
		Scenario: scenario.Tree, Sizes: []int{150, 250}, TopologySeed: 9, Event: testConfig(9, 3),
	}})
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "TREE at n=250") {
		t.Fatalf("err = %v", err)
	}
	if len(out[0].Points) != 1 || out[0].Points[0].N != 150 {
		t.Fatalf("partial points = %+v", out[0].Points)
	}
}

// fakeCells stubs the scheduler's generate/run seams with trivial results so
// cache-mechanics tests run without simulations. Returns a per-size run
// counter.
func fakeCells(s *Scheduler) map[int]*int64 {
	runsByN := map[int]*int64{}
	s.generate = func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
		return &topology.Topology{Nodes: make([]topology.Node, 1)}, nil
	}
	s.run = func(_ context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
		return &Result{N: topo.N()}, nil
	}
	gen := s.generate
	s.generate = func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
		if runsByN[n] == nil {
			runsByN[n] = new(int64)
		}
		atomic.AddInt64(runsByN[n], 1)
		return gen(sc, n, seed)
	}
	return runsByN
}

func TestSchedulerCacheEviction(t *testing.T) {
	s := NewScheduler(1)
	s.SetCacheLimit(2)
	runs := fakeCells(s)
	ev := testConfig(1, 1)
	sweep := func(n int) {
		t.Helper()
		if _, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: []int{n}, TopologySeed: 1, Event: ev}); err != nil {
			t.Fatal(err)
		}
	}
	// Three distinct cells through a two-entry cache: the oldest is evicted.
	sweep(100)
	sweep(150)
	sweep(200)
	if st := s.CacheStats(); st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats after fill = %+v, want 3 misses / 1 eviction", st)
	}
	// The surviving cells are served from cache; the evicted one recomputes.
	sweep(150)
	sweep(200)
	sweep(100)
	st := s.CacheStats()
	if st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 hits for the retained cells", st)
	}
	if got := atomic.LoadInt64(runs[100]); got != 2 {
		t.Fatalf("evicted cell computed %d times, want 2", got)
	}
	// Inserting 100 above evicted the LRU victim 150, leaving {100, 200}.
	// Recency, not insertion order, decides the next victim: touch 200, then
	// insert a new cell — the older-but-untouched 100 goes, 200 survives.
	sweep(200)
	sweep(250)
	sweep(200)
	if got := atomic.LoadInt64(runs[200]); got != 1 {
		t.Fatalf("recently-used cell recomputed (%d runs), LRU order broken", got)
	}
	sweep(100)
	if got := atomic.LoadInt64(runs[100]); got != 3 {
		t.Fatalf("cell 100 computed %d times, want 3 (evicted twice)", got)
	}
}

func TestSchedulerCacheUnbounded(t *testing.T) {
	s := NewScheduler(1)
	s.SetCacheLimit(0)
	fakeCells(s)
	ev := testConfig(1, 1)
	for n := 100; n < 100+2*DefaultCacheCap; n += 1 {
		if _, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: []int{n}, TopologySeed: 1, Event: ev}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.CacheStats(); st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d entries", st.Evictions)
	}
	// Re-imposing a limit trims immediately.
	s.SetCacheLimit(10)
	st := s.CacheStats()
	if st.Evictions != 2*DefaultCacheCap-10 {
		t.Fatalf("SetCacheLimit trimmed %d entries, want %d", st.Evictions, 2*DefaultCacheCap-10)
	}
}

func TestSchedulerNeverEvictsInFlight(t *testing.T) {
	s := NewScheduler(2)
	s.SetCacheLimit(1)
	started := make(chan struct{})
	block := make(chan struct{})
	s.generate = func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
		if n == 100 {
			close(started)
			<-block
		}
		return &topology.Topology{Nodes: make([]topology.Node, 1)}, nil
	}
	var runs int64
	s.run = func(_ context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
		atomic.AddInt64(&runs, 1)
		return &Result{}, nil
	}
	ev := testConfig(1, 1)
	done := make(chan error, 1)
	go func() {
		_, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: []int{100}, TopologySeed: 1, Event: ev})
		done <- err
	}()
	<-started
	// A second cell completes while the first is still computing. The cap is
	// 1, but the in-flight entry must survive the eviction pass.
	if _, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: []int{150}, TopologySeed: 1, Event: ev}); err != nil {
		t.Fatal(err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The slow cell must still be cached: requesting it again may not rerun.
	if _, err := s.RunSweep(context.Background(), scenario.Baseline, SweepConfig{Sizes: []int{100}, TopologySeed: 1, Event: ev}); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&runs); got != 2 {
		t.Fatalf("in-flight cell was evicted and recomputed: %d runs, want 2", got)
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit on the surviving in-flight cell", st)
	}
}
