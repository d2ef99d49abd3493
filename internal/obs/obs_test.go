package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterShardingSumsAcrossShards(t *testing.T) {
	m := New()
	c := m.DES.EventsScheduled
	// Hit every shard explicitly; Value must be the sum.
	var want uint64
	for s := uint32(0); s < m.shards; s++ {
		c.Add(ShardID(s), uint64(s+1))
		want += uint64(s + 1)
	}
	if got := c.Value(); got != want {
		t.Fatalf("Value() = %d, want %d", got, want)
	}
}

func TestShardIDWrapsSafely(t *testing.T) {
	m := New()
	c := m.DES.EventsFired
	// A shard ID far beyond the shard count must mask down, not panic.
	c.Add(ShardID(m.shards*7+3), 5)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestShardRoundRobin(t *testing.T) {
	m := New()
	seen := make(map[ShardID]int)
	for i := uint32(0); i < 2*m.shards; i++ {
		seen[m.Shard()]++
	}
	if len(seen) != int(m.shards) {
		t.Fatalf("round-robin covered %d shards, want %d", len(seen), m.shards)
	}
	for s, n := range seen {
		if n != 2 {
			t.Fatalf("shard %d allocated %d times, want 2", s, n)
		}
	}
}

func TestGaugeNegativeDeltas(t *testing.T) {
	m := New()
	g := m.DES.RingOccupancy
	s := m.Shard()
	g.Add(s, 10)
	g.Add(s, -4)
	g.Cell(s).Add(-1)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestProbeIncrementsAreAllocFree(t *testing.T) {
	m := New()
	des := m.NewDESProbes()
	bgp := m.NewBGPProbes()
	allocs := testing.AllocsPerRun(1000, func() {
		des.Scheduled.Inc()
		des.RingOcc.Add(1)
		des.RingOcc.Add(-1)
		bgp.AnnouncementsSent.Inc()
		bgp.InternBytes.Add(48)
	})
	if allocs != 0 {
		t.Fatalf("probe increments allocated %.1f per run, want 0", allocs)
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
			cell := c.Cell(m.Shard())
			for j := 0; j < per; j++ {
				cell.Inc()
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
	m.DES.EventsScheduled.Add(m.Shard(), 7)
	m.DES.RingOccupancy.Add(m.Shard(), 3)
	m.Core.CellSeconds.Observe(0, 0.5)

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP bgpchurn_des_events_scheduled_total ",
		"# TYPE bgpchurn_des_events_scheduled_total counter",
		"bgpchurn_des_events_scheduled_total 7\n",
		"# TYPE bgpchurn_des_ring_occupancy gauge",
		"bgpchurn_des_ring_occupancy 3\n",
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
	m.BGP.MRAIFlushes.Add(0, 4)
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
