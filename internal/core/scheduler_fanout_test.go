package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// stubCompute replaces the scheduler's seams with a trivial deterministic
// computation so fan-out tests run in microseconds. Size 2 always fails.
func stubCompute(s *Scheduler) {
	s.SetCompute(
		func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
			return &topology.Topology{Nodes: make([]topology.Node, n), Seed: seed}, nil
		},
		func(ctx context.Context, t *topology.Topology, cfg Config) (*Result, error) {
			n := len(t.Nodes)
			if n == 2 {
				return nil, errors.New("stub: n=2 is broken")
			}
			return &Result{N: n, Origins: cfg.Origins, TotalUpdates: float64(n) * 2}, nil
		},
	)
}

func TestSubscribeCellsFanOut(t *testing.T) {
	// Three subscribers each see the full serialized event stream with
	// populated keys. Result rides exactly the error-free CellDone,
	// CellCached and CellResumed events and is the pointer RunGrid returns.
	// A cancelled subscription stops receiving without disturbing the others.
	s := NewScheduler(2)
	stubCompute(s)
	ev := testConfig(3, 4)
	seeded := &Result{N: 300}
	if got := s.resume([]JournalRecord{{Key: KeyFor(scenario.Baseline.Name, 300, 3, ev), Result: seeded}}); got != 1 {
		t.Fatalf("resume seeded %d, want 1", got)
	}

	// Deliveries are serialized and RunGrid returns after every worker
	// finished, so the slices need no locking.
	var subA, subB, subC []CellStatus
	cancelA := s.SubscribeCells(func(cs CellStatus) { subA = append(subA, cs) })
	defer s.SubscribeCells(func(cs CellStatus) { subB = append(subB, cs) })()
	defer s.SubscribeCells(func(cs CellStatus) { subC = append(subC, cs) })()

	reqs := []GridRequest{{Scenario: scenario.Baseline, Sizes: []int{100, 2, 300}, TopologySeed: 3, Event: ev}}
	run := func() map[int]*Result {
		out, err := s.RunGrid(context.Background(), reqs)
		if err == nil {
			t.Fatal("failing cell not reported")
		}
		got := map[int]*Result{}
		for _, p := range out[0].Points {
			got[p.N] = p.R
		}
		if len(got) != 2 || got[300] != seeded {
			t.Fatalf("grid points %v, want n=100 computed and n=300 the resumed pointer", got)
		}
		return got
	}
	first := run()

	// Computed: start + done (100), start + failed (2); resumed: one event.
	if len(subA) != 5 || len(subB) != 5 || len(subC) != 5 {
		t.Fatalf("event counts A=%d B=%d C=%d, want 5 each", len(subA), len(subB), len(subC))
	}
	for _, cs := range subA {
		if want := KeyFor(cs.Scenario, cs.N, 3, ev); cs.Key != want {
			t.Fatalf("event %v carries key %+v, want %+v", cs.State, cs.Key, want)
		}
	}

	// After cancelling A only B and C keep receiving; the repeat request is
	// all cache hits (n=2 replays its cached error, n=300 stays resumed).
	cancelA()
	cancelA() // idempotent
	second := run()
	if len(subA) != 5 {
		t.Fatalf("cancelled subscriber still receiving: %d events", len(subA))
	}
	if len(subB) != 8 || len(subC) != 8 {
		t.Fatalf("surviving subscribers: B=%d C=%d, want 8 each", len(subB), len(subC))
	}
	if second[100] != first[100] {
		t.Fatal("cache hit returned a different result pointer")
	}

	withResult := map[CellState]int{}
	for i, cs := range subB {
		if subC[i] != cs {
			t.Fatalf("subscribers diverge at event %d: %+v vs %+v", i, cs, subC[i])
		}
		want := cs.Err == nil && (cs.State == CellDone || cs.State == CellCached || cs.State == CellResumed)
		if (cs.Result != nil) != want {
			t.Fatalf("event %v n=%d err=%v: Result=%p, want set=%v", cs.State, cs.N, cs.Err, cs.Result, want)
		}
		if cs.Result != nil {
			if cs.Result != first[cs.N] {
				t.Fatalf("event %v n=%d: Result %p is not the pointer RunGrid returned (%p)", cs.State, cs.N, cs.Result, first[cs.N])
			}
			withResult[cs.State]++
		}
	}
	if withResult[CellDone] != 1 || withResult[CellCached] != 1 || withResult[CellResumed] != 2 {
		t.Fatalf("events carrying a result by state = %v, want done 1, cached 1, resumed 2", withResult)
	}
}

// TestCellReturnsItsLastEvent pins Cell's contract for every terminal
// outcome: the CellStatus it returns is the last event that call emitted to
// SubscribeCells, and Result is set exactly on error-free done, cached and
// resumed statuses.
func TestCellReturnsItsLastEvent(t *testing.T) {
	s := NewScheduler(2)
	s.SetRetryPolicy(2, time.Nanosecond)
	started, release := make(chan struct{}), make(chan struct{})
	s.SetCompute(
		func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
			return &topology.Topology{Nodes: make([]topology.Node, n), Seed: seed}, nil
		},
		func(ctx context.Context, t *topology.Topology, cfg Config) (*Result, error) {
			switch n := len(t.Nodes); n {
			case 2:
				return nil, errors.New("stub: n=2 is broken")
			case 3:
				panic("stub: n=3 always panics")
			case 5:
				close(started)
				<-release
			}
			return &Result{N: len(t.Nodes)}, nil
		},
	)
	ev := testConfig(3, 4)
	seeded := &Result{N: 300}
	s.resume([]JournalRecord{{Key: KeyFor(scenario.Baseline.Name, 300, 3, ev), Result: seeded}})

	var mu sync.Mutex
	var events []CellStatus
	defer s.SubscribeCells(func(cs CellStatus) {
		mu.Lock()
		events = append(events, cs)
		mu.Unlock()
	})()
	// emitted returns the events since mark that have one of the states.
	emitted := func(mark int, states ...CellState) []CellStatus {
		mu.Lock()
		defer mu.Unlock()
		var out []CellStatus
		for _, cs := range events[mark:] {
			if slices.Contains(states, cs.State) {
				out = append(out, cs)
			}
		}
		return out
	}
	all := []CellState{CellStart, CellDone, CellCached, CellFailed, CellResumed, CellRetried, CellQuarantined, CellCancelled}
	check := func(name string, got CellStatus, own []CellStatus, want CellState) {
		t.Helper()
		if len(own) == 0 || got != own[len(own)-1] {
			t.Fatalf("%s: Cell returned %+v, want its last event of %+v", name, got, own)
		}
		if got.State != want {
			t.Fatalf("%s: state %v, want %v", name, got.State, want)
		}
		carries := got.Err == nil && (want == CellDone || want == CellCached || want == CellResumed)
		if (got.Result != nil) != carries {
			t.Fatalf("%s: Result %v with state %v and err %v", name, got.Result, got.State, got.Err)
		}
	}
	ctx := context.Background()
	cell := func(ctx context.Context, n int) CellStatus { return s.Cell(ctx, scenario.Baseline, n, 3, ev) }

	mark := len(emitted(0, all...))
	check("computed", cell(ctx, 100), emitted(mark, all...), CellDone)

	// A waiter coalesced onto an in-flight computation reports cached; its
	// only event is the cached one, and it shares the computed pointer.
	mark = len(emitted(0, all...))
	computed, cached := make(chan CellStatus), make(chan CellStatus)
	go func() { computed <- cell(ctx, 5) }()
	<-started
	go func() { cached <- cell(ctx, 5) }()
	for s.CacheStats().Hits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	c, w := <-computed, <-cached
	check("computed (coalesced onto)", c, emitted(mark, CellStart, CellDone), CellDone)
	check("cached", w, emitted(mark, CellCached), CellCached)
	if w.Result != c.Result {
		t.Fatal("coalesced waiter got a different result pointer")
	}

	mark = len(emitted(0, all...))
	if got := cell(ctx, 300); got.Result != seeded {
		t.Fatalf("resumed cell result %v, want the seeded pointer", got.Result)
	} else {
		check("resumed", got, emitted(mark, all...), CellResumed)
	}

	mark = len(emitted(0, all...))
	check("failed", cell(ctx, 2), emitted(mark, all...), CellFailed)

	mark = len(emitted(0, all...))
	q := cell(ctx, 3)
	check("quarantined", q, emitted(mark, all...), CellQuarantined)
	if q.Attempt != 3 || len(emitted(mark, CellRetried)) != 2 {
		t.Fatalf("quarantined after %d attempts and %d retries, want 3 and 2", q.Attempt, len(emitted(mark, CellRetried)))
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	mark = len(emitted(0, all...))
	got := cell(cancelled, 400)
	check("cancelled before start", got, emitted(mark, all...), CellCancelled)
	if !errors.Is(got.Err, context.Canceled) || len(emitted(mark, all...)) != 1 {
		t.Fatalf("cancelled cell: err %v after %d events, want context.Canceled after 1", got.Err, len(emitted(mark, all...)))
	}
}
