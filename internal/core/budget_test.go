package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// The core-budget tests read and reset the process-wide budget, so none of
// them may run in parallel with other tests of this package.

func assertBudgetIdle(t *testing.T, after string) {
	t.Helper()
	if held, _ := des.Cores.Held(); held != 0 {
		t.Fatalf("after %s the budget still holds %d units", after, held)
	}
}

// budgetGrid is six tiny cells of six origins each.
func budgetGrid(parallelism int) []GridRequest {
	ev := testConfig(5, 6)
	ev.Parallelism = parallelism
	var reqs []GridRequest
	for _, sc := range []scenario.Scenario{scenario.Baseline, scenario.DenseCore} {
		reqs = append(reqs, GridRequest{Scenario: sc, Sizes: []int{150, 200, 250}, TopologySeed: 5, Event: ev})
	}
	return reqs
}

// TestCoreBudgetGridHighWater runs a grid on two cell workers with
// Parallelism 0 on two cores, on the inline and on the windowed executor,
// whose crews take units too: units held never exceed GOMAXPROCS plus the
// cell workers minus one (the helpers that have not reached their yield
// boundary yet; DESIGN.md, "Core budget"), and the results equal a
// one-worker-per-cell run.
func TestCoreBudgetGridHighWater(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const cellWorkers = 2
	for _, linkDelay := range []des.Time{0, 10 * des.Millisecond} {
		grid := func(parallelism int) []GridRequest {
			reqs := budgetGrid(parallelism)
			for i := range reqs {
				reqs[i].Event.BGP.LinkDelay = linkDelay
			}
			return reqs
		}
		des.Cores.ResetPeak()
		got, err := NewScheduler(cellWorkers).RunGrid(context.Background(), grid(0))
		if err != nil {
			t.Fatal(err)
		}
		_, peak := des.Cores.Held()
		t.Logf("link delay %v: budget high-water mark %d units", linkDelay, peak)
		assertBudgetIdle(t, "a grid")
		if bound := runtime.GOMAXPROCS(0) + cellWorkers - 1; peak > bound {
			t.Fatalf("link delay %v: budget high-water mark %d exceeds GOMAXPROCS + cell workers - 1 = %d", linkDelay, peak, bound)
		}
		want, err := NewScheduler(cellWorkers).RunGrid(context.Background(), grid(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i].Points {
				if !reflect.DeepEqual(got[i].Points[j], want[i].Points[j]) {
					t.Fatalf("link delay %v, %s n=%d: Parallelism 0 result differs from Parallelism 1", linkDelay, want[i].Scenario, want[i].Points[j].N)
				}
			}
		}
	}
}

// TestCoreBudgetHelpers checks when a lone Parallelism-0 experiment recruits
// helpers: on an idle two-core budget it does, with every unit already held
// or on one core it runs on worker 0 alone, and all three agree.
func TestCoreBudgetHelpers(t *testing.T) {
	topo, err := scenario.Baseline.Generate(200, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(23, 6)
	run := func(procs, preheld int) (res *Result, workers int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for i := 0; i < preheld; i++ {
			des.Cores.Acquire()
			defer des.Cores.Release()
		}
		des.Cores.ResetPeak()
		res, err := RunCEvents(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, peak := des.Cores.Held()
		return res, peak - preheld
	}
	idle, workers := run(2, 0)
	if workers < 2 {
		t.Fatalf("idle two-core budget: %d workers, want at least one helper", workers)
	}
	full, workers := run(2, 2)
	if workers != 1 {
		t.Fatalf("fully held budget: %d workers, want worker 0 alone", workers)
	}
	single, workers := run(1, 0)
	if workers != 1 {
		t.Fatalf("GOMAXPROCS 1: %d workers, want worker 0 alone", workers)
	}
	assertBudgetIdle(t, "three experiments")
	if !reflect.DeepEqual(idle, full) || !reflect.DeepEqual(idle, single) {
		t.Fatal("helpers changed the Result")
	}
}

// goroutineID returns the calling goroutine's number from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestCoreBudgetHelperYields over-subscribes the budget while a lone
// experiment runs on worker 0 and a helper: the helper finishes at most the
// origin it already claimed and leaves, so worker 0 runs every later one.
func TestCoreBudgetHelperYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	topo, err := scenario.Baseline.Generate(300, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(31, 12)
	cfg.Spans = obs.NewSpanRecorder()
	var (
		mu    sync.Mutex
		taken bool
		after = map[string]int{} // origin spans per goroutine after the take
	)
	cfg.Spans.OnSpan(func(sp obs.SpanRecord) {
		if sp.Level != obs.SpanOrigin {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if !taken {
			des.Cores.Acquire() // another cell starts: more units held than cores
			taken = true
			return
		}
		after[goroutineID()]++
	})
	defer des.Cores.Release()
	worker0 := goroutineID()
	if _, err := RunCEvents(topo, cfg); err != nil {
		t.Fatal(err)
	}
	if !taken {
		t.Fatal("no origin span seen")
	}
	for g, n := range after {
		if g != worker0 && n > 1 {
			t.Fatalf("a helper ran %d origins after the budget was over-subscribed, want at most 1 (%v)", n, after)
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so an
// experiment is cancelled at a deterministic origin boundary.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCoreBudgetReleased checks that every unit is given back — by defer —
// after a grid, a cancelled grid or experiment, and a cell that panics inside
// generation, origin worker 0 or a helper.
func TestCoreBudgetReleased(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	t.Run("cancelled grid", func(t *testing.T) {
		s := NewScheduler(2)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.SubscribeCells(func(cs CellStatus) {
			if cs.State == CellDone {
				cancel()
			}
		})
		out, err := s.RunGrid(ctx, budgetGrid(0))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if n := len(out[0].Points) + len(out[1].Points); n >= 6 {
			t.Fatalf("cancellation computed all %d cells", n)
		}
		assertBudgetIdle(t, "a cancelled grid")
	})
	t.Run("cancelled experiment", func(t *testing.T) {
		topo, err := scenario.Baseline.Generate(200, 29)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(3)
		res, err := RunCEventsContext(ctx, topo, testConfig(29, 6))
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled experiment returned (%v, %v), want (nil, context.Canceled)", res, err)
		}
		assertBudgetIdle(t, "a cancelled experiment")
	})
	t.Run("panic in generation", func(t *testing.T) {
		s := NewScheduler(2)
		s.generate = func(scenario.Scenario, int, uint64) (*topology.Topology, error) {
			panic("injected generation fault")
		}
		if _, err := s.RunGrid(context.Background(), budgetGrid(0)); !IsTransient(err) {
			t.Fatalf("want a recovered panic, got %v", err)
		}
		assertBudgetIdle(t, "panicking generation")
	})
	// faultCell runs a 12-origin cell on an idle two-core budget, so worker
	// 0 starts one helper at its first origin boundary. The first event span
	// on worker 0 (onWorker0) or on a helper panics with value; every event
	// span on the other side waits until that panic is raised. So on every
	// schedule the fault fires while the other side is mid-origin, and the
	// cell must still return the panic with no worker or unit left behind.
	faultCell := func(t *testing.T, onWorker0 bool, value string) {
		s := NewScheduler(1)
		var worker0 atomic.Value
		s.run = func(ctx context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
			worker0.Store(goroutineID())
			return RunCEventsContext(ctx, topo, cfg)
		}
		raised := make(chan struct{})
		var once sync.Once
		spans := obs.NewSpanRecorder()
		spans.OnSpan(func(sp obs.SpanRecord) {
			if sp.Level != obs.SpanEvent {
				return
			}
			if (worker0.Load() == goroutineID()) != onWorker0 {
				select {
				case <-raised:
				case <-time.After(time.Minute): // no fault side ran: fail below, do not hang
				}
				return
			}
			fire := false
			once.Do(func() { close(raised); fire = true })
			if fire {
				panic(value)
			}
		})
		ev := testConfig(5, 12)
		ev.Spans = spans
		reqs := []GridRequest{{Scenario: scenario.Baseline, Sizes: []int{300}, TopologySeed: 5, Event: ev}}
		var pe *CellPanicError
		if _, err := s.RunGrid(context.Background(), reqs); !errors.As(err, &pe) || pe.Value != value {
			t.Fatalf("want the injected panic %q, got %v", value, err)
		}
	}
	t.Run("panic in origin worker 0", func(t *testing.T) {
		// The helper must stop claiming and be joined before the call returns.
		faultCell(t, true, "injected origin fault")
		assertBudgetIdle(t, "a panicking origin")
	})
	t.Run("panic in a helper", func(t *testing.T) {
		// The helper's panic must not end the process: worker 0 re-raises it
		// after the join, and the scheduler recovers it as the cell's fault.
		faultCell(t, false, "injected helper fault")
		assertBudgetIdle(t, "a panicking helper")
	})
	assertBudgetIdle(t, "every case")
}
