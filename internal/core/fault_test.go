package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// fakeGrid installs trivial generate/run seams (no real simulation) where
// run delegates to fn per cell size.
func fakeGrid(s *Scheduler, fn func(ctx context.Context, n int) (*Result, error)) {
	s.generate = func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
		return &topology.Topology{Nodes: make([]topology.Node, n)}, nil
	}
	s.run = func(ctx context.Context, topo *topology.Topology, cfg Config) (*Result, error) {
		return fn(ctx, topo.N())
	}
}

func gridReq(sizes ...int) []GridRequest {
	return []GridRequest{{
		Scenario: scenario.Baseline, Sizes: sizes, TopologySeed: 1, Event: testConfig(1, 2),
	}}
}

func TestPanicIsolatedAndTyped(t *testing.T) {
	// A panic in one concurrent cell worker must not take the grid down:
	// it surfaces as a CellQuarantinedError wrapping a CellPanicError with
	// the cell key and a captured stack, and every other cell completes.
	s := NewScheduler(4)
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		if n == 2 {
			panic("injected fault")
		}
		return &Result{N: n}, nil
	})
	out, err := s.RunGrid(context.Background(), gridReq(1, 2, 3, 4))
	if err == nil {
		t.Fatal("panicking cell reported no error")
	}
	var qe *CellQuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("error is not a quarantine: %T %v", err, err)
	}
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("quarantine does not wrap the panic: %v", err)
	}
	if pe.Key.N != 2 || pe.Value != "injected fault" {
		t.Fatalf("panic error = %+v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("panic stack not captured")
	}
	if !IsQuarantined(err) || IsTransient(pe) != true {
		t.Fatal("fault classification helpers disagree")
	}
	// The three healthy cells all completed.
	if len(out) != 1 || len(out[0].Points) != 3 {
		t.Fatalf("healthy cells lost: %+v", out[0])
	}
	for i, n := range []int{1, 3, 4} {
		if out[0].Points[i].N != n {
			t.Fatalf("points = %+v", out[0].Points)
		}
	}
}

func TestRetryThenSucceedDeterministicSchedule(t *testing.T) {
	// A transiently failing cell is recomputed on the retry budget and the
	// eventual success is reported with its attempt count; the backoff
	// schedule is a pure function of the cell key.
	s := NewScheduler(2)
	s.SetRetryPolicy(3, time.Microsecond)
	var attempts atomic.Int64
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		if n == 2 && attempts.Add(1) <= 2 {
			panic(fmt.Sprintf("flaky attempt %d", attempts.Load()))
		}
		return &Result{N: n}, nil
	})
	var events []CellStatus
	s.SubscribeCells(func(cs CellStatus) {
		if cs.N == 2 {
			events = append(events, cs)
		}
	})
	out, err := s.RunGrid(context.Background(), gridReq(1, 2, 3))
	if err != nil {
		t.Fatalf("retry did not recover the cell: %v", err)
	}
	if len(out[0].Points) != 3 {
		t.Fatalf("points = %+v", out[0].Points)
	}
	var retried, done int
	for _, e := range events {
		switch e.State {
		case CellRetried:
			retried++
			if e.Attempt != retried {
				t.Fatalf("retry event attempt = %d, want %d", e.Attempt, retried)
			}
			if !IsTransient(e.Err) {
				t.Fatalf("retry event err = %v", e.Err)
			}
		case CellDone:
			done++
			if e.Attempt != 3 {
				t.Fatalf("done event attempt = %d, want 3", e.Attempt)
			}
		}
	}
	if retried != 2 || done != 1 {
		t.Fatalf("events: retried=%d done=%d, want 2 and 1", retried, done)
	}
	st := s.CacheStats()
	if st.Retries != 2 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// The jittered backoff schedule derives from the cell key alone.
	key := cellKey("BASELINE", 2, 1, testConfig(1, 2))
	sched := func() []time.Duration {
		r := rng.New(keyHash(key) ^ retrySeedSalt)
		var out []time.Duration
		for a := 1; a <= 3; a++ {
			out = append(out, retryDelay(r, DefaultRetryBackoff, a))
		}
		return out
	}
	a, b := sched(), sched()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry schedule not deterministic: %v vs %v", a, b)
		}
		lo := DefaultRetryBackoff << uint(i) / 2
		hi := DefaultRetryBackoff << uint(i)
		if a[i] < lo || a[i] > hi {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, a[i], lo, hi)
		}
	}
}

func TestQuarantineAfterBudgetAndCached(t *testing.T) {
	s := NewScheduler(2)
	s.SetRetryPolicy(1, time.Microsecond)
	var runs atomic.Int64
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		if n == 2 {
			runs.Add(1)
			panic("always broken")
		}
		return &Result{N: n}, nil
	})
	var quarEvents []CellStatus
	s.SubscribeCells(func(cs CellStatus) {
		if cs.State == CellQuarantined {
			quarEvents = append(quarEvents, cs)
		}
	})
	_, err := s.RunGrid(context.Background(), gridReq(1, 2, 3))
	if !IsQuarantined(err) {
		t.Fatalf("want quarantine, got %v", err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("cell computed %d times, want 1 + 1 retry", got)
	}
	if len(quarEvents) != 1 || quarEvents[0].Attempt != 2 {
		t.Fatalf("quarantine events = %+v", quarEvents)
	}
	q := s.Quarantined()
	if len(q) != 1 || q[0].Key.N != 2 || q[0].Attempts != 2 {
		t.Fatalf("Quarantined() = %+v", q)
	}
	st := s.CacheStats()
	if st.Quarantined != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The quarantine is cached: re-requesting the cell must not recompute.
	_, err2 := s.RunGrid(context.Background(), gridReq(2))
	if !IsQuarantined(err2) {
		t.Fatalf("second request: %v", err2)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("quarantined cell recomputed (runs=%d)", got)
	}
}

func TestCellTimeoutIsTransient(t *testing.T) {
	s := NewScheduler(1)
	ev := testConfig(1, 2)
	ev.CellTimeout = 5 * time.Millisecond
	fakeGrid(s, func(ctx context.Context, n int) (*Result, error) {
		if n == 2 {
			<-ctx.Done() // simulate a stuck cell honoring the deadline
			return nil, ctx.Err()
		}
		return &Result{N: n}, nil
	})
	out, err := s.RunGrid(context.Background(), []GridRequest{{
		Scenario: scenario.Baseline, Sizes: []int{1, 2, 3}, TopologySeed: 1, Event: ev,
	}})
	if !IsQuarantined(err) {
		t.Fatalf("want quarantined timeout, got %v", err)
	}
	var te *CellTimeoutError
	if !errors.As(err, &te) || te.Timeout != ev.CellTimeout {
		t.Fatalf("want CellTimeoutError with the configured deadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("timeout does not satisfy errors.Is(context.DeadlineExceeded)")
	}
	if len(out[0].Points) != 2 {
		t.Fatalf("other cells lost: %+v", out[0].Points)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	s := NewScheduler(1)
	s.SetRetryPolicy(5, time.Microsecond)
	var runs atomic.Int64
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		runs.Add(1)
		return nil, errors.New("bad configuration")
	})
	_, err := s.RunGrid(context.Background(), gridReq(7))
	if err == nil || !strings.Contains(err.Error(), "BASELINE at n=7") {
		t.Fatalf("err = %v", err)
	}
	if IsTransient(err) || IsQuarantined(err) {
		t.Fatal("permanent error misclassified")
	}
	if runs.Load() != 1 {
		t.Fatalf("permanent error retried %d times", runs.Load()-1)
	}
}

func TestCancellationMidGrid(t *testing.T) {
	// Cancel after the first computed cell: the grid drains without
	// computing everything, the error is the context's, and cancelled
	// cells are NOT cached — a rerun with a live context completes them.
	s := NewScheduler(1)
	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		if runs.Add(1) == 1 {
			cancel()
		}
		return &Result{N: n}, nil
	})
	out, err := s.RunGrid(ctx, gridReq(1, 2, 3, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	computed := runs.Load()
	if computed >= 4 {
		t.Fatalf("cancellation did not stop scheduling (computed %d)", computed)
	}
	if len(out) != 1 {
		t.Fatalf("out = %+v", out)
	}
	st := s.CacheStats()
	if st.Cancelled == 0 {
		t.Fatalf("no cancelled cells recorded: %+v", st)
	}

	// Fresh context: the missing cells compute, completed ones are hits.
	out2, err := s.RunGrid(context.Background(), gridReq(1, 2, 3, 4))
	if err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if len(out2[0].Points) != 4 {
		t.Fatalf("rerun points = %+v", out2[0].Points)
	}
	if runs.Load() != 4 {
		t.Fatalf("rerun computed %d total, want exactly 4 (no recomputation of done cells)", runs.Load())
	}
}

func TestResumeIgnoresRIBRepresentation(t *testing.T) {
	// bgp.Config.CompactRIB is ignored by the engine but was part of the
	// cell key once, so journals exist with either value: a request must be
	// served from them whichever value it carries itself.
	for _, journaled := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "cells.journal")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		req := gridReq(1, 2, 3)
		for _, n := range req[0].Sizes {
			key := cellKey(req[0].Scenario.Name, n, req[0].TopologySeed, req[0].Event)
			key.BGP.CompactRIB = journaled
			if err := j.Append(key, &Result{N: n}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		recs, truncated, err := LoadJournal(path)
		if err != nil || truncated {
			t.Fatalf("load: truncated=%v err=%v", truncated, err)
		}

		s := NewScheduler(2)
		var runs atomic.Int64
		fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
			runs.Add(1)
			return &Result{N: n}, nil
		})
		if got := s.resume(recs); got != 3 {
			t.Fatalf("journaled=%v: resume seeded %d, want 3", journaled, got)
		}
		req[0].Event.BGP.CompactRIB = !journaled
		if _, err := s.RunGrid(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 0 {
			t.Fatalf("journaled=%v: resumed run recomputed %d cells", journaled, runs.Load())
		}
	}
}

func TestResumeGrowsCacheCapToFitJournal(t *testing.T) {
	// A journal larger than the cache cap must not evict the cells it just
	// seeded — that would silently recompute the head of the grid and defeat
	// the resume.
	s := NewScheduler(2)
	s.SetCacheLimit(2)
	var runs atomic.Int64
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		runs.Add(1)
		return &Result{N: n}, nil
	})
	var recs []JournalRecord
	sizes := make([]int, 6)
	for i := range sizes {
		n := i + 1
		sizes[i] = n
		recs = append(recs, JournalRecord{
			Key:    cellKey("BASELINE", n, 1, testConfig(1, 2)),
			Result: &Result{N: n},
		})
	}
	if got := s.resume(recs); got != 6 {
		t.Fatalf("resume seeded %d, want 6", got)
	}
	out, err := s.RunGrid(context.Background(), gridReq(sizes...))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("resume over the cache cap recomputed %d cells", runs.Load())
	}
	if len(out[0].Points) != 6 {
		t.Fatalf("points = %+v", out[0].Points)
	}
	st := s.CacheStats()
	if st.Resumed != 6 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryDelayLargeAttemptDoesNotOverflow(t *testing.T) {
	// base << (attempt-1) overflows int64 around attempt 34 at the default
	// base; the delay must saturate at maxRetryBackoff, never collapse to a
	// near-zero hot-loop value.
	r := rng.New(1)
	for _, attempt := range []int{33, 34, 64, 1000} {
		d := retryDelay(r, DefaultRetryBackoff, attempt)
		if d < maxRetryBackoff/2 || d > maxRetryBackoff {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, maxRetryBackoff/2, maxRetryBackoff)
		}
	}
	// A base above the cap is respected rather than clamped below itself.
	if d := retryDelay(rng.New(1), 2*maxRetryBackoff, 5); d < maxRetryBackoff {
		t.Fatalf("large-base delay %v fell below its own base", d)
	}
}

func TestCoalescedWaiterSurvivesForeignCancellation(t *testing.T) {
	// Two grids share a scheduler and request the same cell. Grid A starts
	// computing it and is cancelled mid-flight; grid B, which coalesced onto
	// A's in-flight entry, must not inherit A's cancellation error as a
	// cache hit — it recomputes under its own live context and succeeds.
	s := NewScheduler(2)
	var calls atomic.Int64
	started := make(chan struct{})
	fakeGrid(s, func(ctx context.Context, n int) (*Result, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &Result{N: n}, nil
	})

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := s.RunGrid(ctxA, gridReq(7))
		aDone <- err
	}()
	<-started

	type bOut struct {
		res []*SweepResult
		err error
	}
	bDone := make(chan bOut, 1)
	go func() {
		res, err := s.RunGrid(context.Background(), gridReq(7))
		bDone <- bOut{res, err}
	}()
	// Wait until B has coalesced onto A's in-flight entry (the hit is
	// counted before B blocks on the entry), then cancel A.
	deadline := time.Now().Add(5 * time.Second)
	for s.CacheStats().Hits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grid B never coalesced onto the in-flight cell")
		}
		time.Sleep(time.Millisecond)
	}
	cancelA()

	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("grid A: want context.Canceled, got %v", err)
	}
	b := <-bDone
	if b.err != nil {
		t.Fatalf("grid B inherited the foreign cancellation: %v", b.err)
	}
	if len(b.res[0].Points) != 1 || b.res[0].Points[0].R.N != 7 {
		t.Fatalf("grid B points = %+v", b.res[0].Points)
	}
	if calls.Load() != 2 {
		t.Fatalf("cell computed %d times, want 2 (A's abandoned + B's recompute)", calls.Load())
	}
	st := s.CacheStats()
	if st.Hits != 0 {
		t.Fatalf("aborted coalesce still counted as a hit: %+v", st)
	}
	if st.Misses != 2 || st.Cancelled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResumeServesCellsWithoutRecompute(t *testing.T) {
	// First run journals every computed cell; a fresh scheduler resumes
	// from the journal and must serve the whole grid as CellResumed hits
	// with identical results and zero computations.
	dir := t.TempDir()
	path := filepath.Join(dir, "cells.journal")

	mkResult := func(n int) *Result {
		return &Result{N: n, TotalUpdates: float64(n) / 3.0}
	}
	s1 := NewScheduler(2)
	fakeGrid(s1, func(_ context.Context, n int) (*Result, error) { return mkResult(n), nil })
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetJournal(j)
	first, err := s1.RunGrid(context.Background(), gridReq(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if j.Appended() != 3 {
		t.Fatalf("journal has %d cells, want 3", j.Appended())
	}
	j.Close()

	s2 := NewScheduler(2)
	var runs atomic.Int64
	fakeGrid(s2, func(_ context.Context, n int) (*Result, error) {
		runs.Add(1)
		return mkResult(n), nil
	})
	recs, truncated, err := LoadJournal(path)
	if err != nil || truncated {
		t.Fatalf("load: truncated=%v err=%v", truncated, err)
	}
	if got := s2.resume(recs); got != 3 {
		t.Fatalf("resume seeded %d, want 3", got)
	}
	var resumed int
	s2.SubscribeCells(func(cs CellStatus) {
		if cs.State == CellResumed {
			resumed++
		}
	})
	second, err := s2.RunGrid(context.Background(), gridReq(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("resumed run recomputed %d cells", runs.Load())
	}
	if resumed != 3 {
		t.Fatalf("resumed events = %d, want 3", resumed)
	}
	st := s2.CacheStats()
	if st.Hits != 3 || st.Resumed != 3 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i := range first[0].Points {
		if *first[0].Points[i].R != *second[0].Points[i].R {
			t.Fatalf("resumed result differs at n=%d", first[0].Points[i].N)
		}
	}

	// resume must not clobber keys already in the cache.
	if got := s2.resume(recs); got != 0 {
		t.Fatalf("second resume seeded %d, want 0", got)
	}
}
