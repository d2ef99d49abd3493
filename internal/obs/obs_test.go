package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestShardIDWrapsSafely: the hub keeps no per-consumer state, so any
// number of publishers is safe — far more than the 64 shards the hub once
// capped at — and their batches sum exactly.
func TestShardIDWrapsSafely(t *testing.T) {
	m := New()
	c := m.DES.EventsFired
	const publishers, batch = 200, 37
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Add(batch)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != publishers*batch {
		t.Fatalf("Value() = %d, want %d", got, publishers*batch)
	}
}

// TestShardRoundRobin: every registered metric is a single cell that a
// publication reaches at once — nothing is held per consumer that a scrape
// would have to gather — and the snapshot reads each exactly.
func TestShardRoundRobin(t *testing.T) {
	m := New()
	for i, c := range m.counters {
		c.Add(uint64(i + 1))
	}
	for i, g := range m.gauges {
		g.Add(int64(i + 1))
	}
	snap := m.Snapshot()
	for i, c := range m.counters {
		if got := c.Value(); got != uint64(i+1) || snap[c.name] != float64(i+1) {
			t.Errorf("%s: Value %d, snapshot %v, want %d", c.name, got, snap[c.name], i+1)
		}
	}
	for i, g := range m.gauges {
		if got := g.Value(); got != int64(i+1) || snap[g.name] != float64(i+1) {
			t.Errorf("%s: Value %d, snapshot %v, want %d", g.name, got, snap[g.name], i+1)
		}
	}
}

func TestGaugeNegativeDeltas(t *testing.T) {
	m := New()
	g := m.Serve.QueueDepth
	g.Add(10)
	g.Add(-4)
	g.Add(-1)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

// TestProbeIncrementsAreAllocFree: adding to the hub — a publication, or a
// per-cell increment — allocates nothing.
func TestProbeIncrementsAreAllocFree(t *testing.T) {
	m := New()
	allocs := testing.AllocsPerRun(1000, func() {
		m.DES.RingPushes.Add(48)
		m.BGP.AnnouncementsSent.Inc()
		m.Serve.QueueDepth.Add(1)
		m.Serve.QueueDepth.Add(-1)
	})
	if allocs != 0 {
		t.Fatalf("hub increments allocated %.1f per run, want 0", allocs)
	}
}

func TestConcurrentIncrementsExact(t *testing.T) {
	m := New()
	c := m.BGP.UpdatesProcessed
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("Value() = %d, want %d", got, goroutines*per)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	m := New()
	m.DES.RingPushes.Add(7)
	m.Serve.QueueDepth.Add(3)
	m.Core.CellSeconds.Observe(0.5)

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP bgpchurn_des_ring_pushes_total ",
		"# TYPE bgpchurn_des_ring_pushes_total counter",
		"bgpchurn_des_ring_pushes_total 7\n",
		"# TYPE bgpchurn_serve_queue_depth gauge",
		"bgpchurn_serve_queue_depth 3\n",
		"# TYPE bgpchurn_core_cell_seconds histogram",
		`bgpchurn_core_cell_seconds_bucket{le="0.5"} 1`,
		`bgpchurn_core_cell_seconds_bucket{le="+Inf"} 1`,
		"bgpchurn_core_cell_seconds_sum 0.5\n",
		"bgpchurn_core_cell_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- output ---\n%s", want, out)
		}
	}
	// Buckets below the observed value must be cumulative zero.
	if !strings.Contains(out, `bgpchurn_core_cell_seconds_bucket{le="0.1"} 0`) {
		t.Errorf("expected empty le=0.1 bucket\n%s", out)
	}
}

func TestSnapshotCoversEveryMetric(t *testing.T) {
	m := New()
	snap := m.Snapshot()
	want := len(m.counters) + len(m.gauges) + 2*len(m.hists)
	if len(snap) != want {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), want)
	}
	m.BGP.MRAIFlushes.Add(4)
	if got := m.Snapshot()["bgpchurn_bgp_mrai_flushes_total"]; got != 4 {
		t.Fatalf("snapshot counter = %v, want 4", got)
	}
}

func TestMetricNamesUniqueAndPrefixed(t *testing.T) {
	m := New()
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if seen[name] {
			t.Errorf("duplicate metric name %q", name)
		}
		seen[name] = true
		if !strings.HasPrefix(name, "bgpchurn_") {
			t.Errorf("metric %q missing bgpchurn_ prefix", name)
		}
	}
	for _, c := range m.counters {
		check(c.Name())
	}
	for _, g := range m.gauges {
		check(g.Name())
	}
	for _, h := range m.hists {
		check(h.Name())
	}
}
