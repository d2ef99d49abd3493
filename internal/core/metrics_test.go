package core

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics_golden.json from the current engine")

const metricsGoldenPath = "testdata/metrics_golden.json"

// emptyFlushesMetric is asserted on its own: the golden predates it.
const emptyFlushesMetric = "bgpchurn_bgp_mrai_empty_flushes_total"

// metricsGoldenCells is the fixed set of experiments the golden covers:
// C-event and L-event, NO-WRATE and WRATE, on the inline executor and on the
// windowed one, plus one PerPrefix cell. Parallelism 1 keeps the
// one-Network-per-worker count fixed.
func metricsGoldenCells() map[string]Config {
	cells := map[string]Config{}
	for _, kind := range []EventKind{CEvent, LinkEvent} {
		for _, wrate := range []bool{false, true} {
			for _, windowed := range []bool{false, true} {
				cfg := testConfig(29, 4)
				cfg.Parallelism = 1
				cfg.Kind = kind
				cfg.BGP.RateLimitWithdrawals = wrate
				name := "c"
				if kind == LinkEvent {
					name = "l"
				}
				if wrate {
					name += "/wrate"
				} else {
					name += "/no-wrate"
				}
				if windowed {
					cfg.BGP.LinkDelay = 10 * des.Millisecond
					name += "/windowed"
				} else {
					name += "/inline"
				}
				cells[name] = cfg
			}
		}
	}
	pp := testConfig(29, 4)
	pp.Parallelism = 1
	pp.BGP.Scope = bgp.PerPrefix
	cells["c/no-wrate/inline/per-prefix"] = pp
	return cells
}

// goldenCounters is the integer part of a hub snapshot: every counter and
// gauge, leaving out the wall-clock histograms.
func goldenCounters(m *obs.Metrics) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range m.Snapshot() {
		if strings.HasSuffix(k, "_seconds_count") || strings.HasSuffix(k, "_seconds_sum") {
			continue
		}
		out[k] = uint64(v)
	}
	return out
}

// TestMetricsGolden pins every integer metric a fixed set of RunCEvents
// calls leaves in the hub, plus the counters of the topology generation
// they run on. Metrics are published at run boundaries rather than counted
// per event, and the totals at the end of a run must not depend on which.
// It runs at one CPU: a windowed network is then one partition on one
// worker, so the cross-partition count is the golden's zero on any host.
func TestMetricsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := map[string]map[string]uint64{}

	m := obs.New()
	topology.SetObsProbes(m.NewTopoProbes())
	topo, err := scenario.Baseline.Generate(300, 29)
	topology.SetObsProbes(nil)
	if err != nil {
		t.Fatal(err)
	}
	got["topology"] = goldenCounters(m)
	delete(got["topology"], emptyFlushesMetric)

	var empties uint64
	for name, cfg := range metricsGoldenCells() {
		m := obs.New()
		cfg.Obs = m
		if _, err := RunCEvents(topo, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := goldenCounters(m)
		empty, ok := c[emptyFlushesMetric]
		if !ok {
			t.Fatalf("%s: hub has no %s", name, emptyFlushesMetric)
		}
		delete(c, emptyFlushesMetric)
		if flushes := c["bgpchurn_bgp_mrai_flushes_total"] + c["bgpchurn_bgp_prefix_mrai_flushes_total"]; empty > flushes {
			t.Errorf("%s: %d empty MRAI flushes of %d", name, empty, flushes)
		}
		empties += empty
		got[name] = c
	}
	if empties == 0 {
		t.Errorf("no cell counted an empty MRAI flush")
	}

	if *updateMetricsGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !reflect.DeepEqual(got[name], want[name]) {
			for k, w := range want[name] {
				if g, ok := got[name][k]; !ok || g != w {
					t.Errorf("%s: %s = %d (present %v), golden %d", name, k, g, ok, w)
				}
			}
			for k, g := range got[name] {
				if _, ok := want[name][k]; !ok {
					t.Errorf("%s: %s = %d is not in the golden", name, k, g)
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d golden entries, %d computed", len(want), len(got))
	}
}

// TestSchedulerMetrics drives cells to every end state the scheduler
// counts — computed, cached, failed, retried, panicked, quarantined,
// cancelled, evicted, journaled, resumed — and checks two things. The hub's
// counts match the cells driven. CacheStats, the only tally of cache
// traffic, equals the fold of the SubscribeCells events over the same grids.
func TestSchedulerMetrics(t *testing.T) {
	m := obs.New()
	journal := filepath.Join(t.TempDir(), "cells.journal")
	s := NewScheduler(1)
	s.SetObs(m)
	folded := foldCellEvents(s)
	s.SetRetryPolicy(1, time.Microsecond)
	s.SetCacheLimit(3)
	if _, _, err := s.AttachJournal(journal, false); err != nil {
		t.Fatal(err)
	}
	var cancel context.CancelFunc
	fakeGrid(s, func(_ context.Context, n int) (*Result, error) {
		switch n {
		case 2:
			panic("always broken")
		case 3:
			return nil, errors.New("bad configuration")
		case 6:
			cancel()
			return nil, context.Canceled
		}
		return &Result{N: n}, nil
	})
	// 1, 4, 5 compute and are journaled; 2 panics twice and is quarantined;
	// 3 fails; five entries through a cap of three evict.
	s.RunGrid(context.Background(), gridReq(1, 2, 3, 4, 5))
	s.RunGrid(context.Background(), gridReq(5)) // a cache hit
	// A grid cancelled mid-flight. RunGrid times the cancellation only when
	// its context.AfterFunc has fired before the pool drains, which the
	// scheduler does not promise; cancel grids until one is timed.
	for i := 0; i < 100 && m.Core.CancelSeconds.Snapshot().Count == 0; i++ {
		ctx, stop := context.WithCancel(context.Background())
		cancel = stop
		s.RunGrid(ctx, gridReq(6, 7))
		stop()
	}
	s.Journal().Close()

	st := s.CacheStats()
	fold := folded()
	fold.Evictions = st.Evictions // no event reports an eviction
	if st != fold {
		t.Errorf("CacheStats %+v, the fold of its events %+v", st, fold)
	}
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 || st.Retries == 0 || st.Quarantined == 0 || st.Cancelled == 0 {
		t.Errorf("CacheStats %+v: an outcome was never driven", st)
	}
	c := &m.Core
	for _, x := range []struct {
		name      string
		got, want uint64
	}{
		{"computed", c.CellsComputed.Value(), 3},
		{"failed", c.CellsFailed.Value(), 1},
		{"panics", c.PanicsRecovered.Value(), 2},
		{"journal writes", c.JournalWrites.Value(), 3},
		{"cell seconds", c.CellSeconds.Snapshot().Count, 3},
		{"cancel seconds", min(c.CancelSeconds.Snapshot().Count, 1), 1},
	} {
		if x.got != x.want {
			t.Errorf("%s: hub %d, want %d (stats %+v)", x.name, x.got, x.want, st)
		}
	}

	// A second scheduler resumes from the journal and serves it.
	s2 := NewScheduler(1)
	s2.SetObs(m)
	folded2 := foldCellEvents(s2)
	fakeGrid(s2, func(_ context.Context, n int) (*Result, error) { return &Result{N: n}, nil })
	seeded, _, err := s2.AttachJournal(journal, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Journal().Close()
	s2.RunGrid(context.Background(), gridReq(1, 4, 5))
	if got := c.JournalLoads.Value(); got != uint64(seeded) || seeded != 3 {
		t.Errorf("journal loads: hub %d, seeded %d, want 3", got, seeded)
	}
	if st2, fold2 := s2.CacheStats(), folded2(); st2 != fold2 || st2.Resumed != 3 || st2.Hits != 3 {
		t.Errorf("resumed scheduler: CacheStats %+v, fold %+v, want 3 resumed hits", st2, fold2)
	}
}

// foldCellEvents subscribes to s and returns a function that reports the
// CacheStats its events add up to: CellStart is a miss, CellCached and
// CellResumed are hits, and resumed, retried, quarantined and cancelled
// cells count in their own fields. Evictions stays zero.
func foldCellEvents(s *Scheduler) func() CacheStats {
	var mu sync.Mutex
	var st CacheStats
	s.SubscribeCells(func(cs CellStatus) {
		mu.Lock()
		defer mu.Unlock()
		switch cs.State {
		case CellStart:
			st.Misses++
		case CellCached:
			st.Hits++
		case CellResumed:
			st.Hits++
			st.Resumed++
		case CellRetried:
			st.Retries++
		case CellQuarantined:
			st.Quarantined++
		case CellCancelled:
			st.Cancelled++
		}
	})
	return func() CacheStats {
		mu.Lock()
		defer mu.Unlock()
		return st
	}
}
