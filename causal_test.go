package bgpchurn

// Causal-tracing tier. Two properties anchor the tracing layer:
//
//  1. Inertness — attaching a SpanRecorder (which closes each event into a
//     span) must not change a single observable bit of any result, at any
//     shard count, for either protocol variant. An event's attribution is
//     a window on counters the engine keeps anyway: it only ever reads
//     engine state.
//
//  2. Exactness — the live Eq.-1 attribution carried on event spans is not
//     an estimate: re-aggregating the spans of a run must reproduce the
//     Result's aggregate counters *bitwise*, because both sides sum the
//     same integer-valued counters in the same order.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

// spanVariant returns cfg with a fresh span recorder attached.
func spanVariant(cfg Experiment) (Experiment, *SpanRecorder) {
	c := cfg
	c.Spans = NewSpanRecorder()
	return c, c.Spans
}

// TestResultIdenticalWithSpans proves span recording inert: spans on vs off,
// across scenarios, protocol variants, executors and CPU counts, results are
// byte-identical — and spans were actually recorded.
func TestResultIdenticalWithSpans(t *testing.T) {
	for _, sc := range []Scenario{Baseline, Tree} {
		topo, err := sc.Generate(400, 37)
		if err != nil {
			t.Fatal(err)
		}
		for variant, cfg := range protocolVariants(37, 5) {
			for _, cpus := range []int{0, 1, 4} { // 0 = inline executor
				base := cfg
				label := "inline"
				if cpus > 0 {
					base = shardedVariant(base)
					label = fmt.Sprintf("%d CPUs", cpus)
				}
				var bare, got *Result
				var err error
				traced, spans := spanVariant(base)
				withCPUs(max(cpus, 1), func() {
					if bare, err = RunCEvents(topo, base); err == nil {
						got, err = RunCEvents(topo, traced)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if fingerprint(got) != fingerprint(bare) {
					t.Fatalf("%s/%s/%s: attaching spans changed the result:\nbare  %s\nspans %s",
						sc.Name, variant, label, fingerprint(bare), fingerprint(got))
				}
				// 2 event spans + 1 origin span per origin.
				if want := 3 * bare.Origins; spans.Len() != want {
					t.Fatalf("%s/%s/%s: recorded %d spans, want %d", sc.Name, variant, label, spans.Len(), want)
				}
			}
		}
	}
}

// TestSweepCSVIdenticalWithSpans compares the U(X) CSV artifact of a small
// grid sweep with spans on vs off — the figure-level restatement of
// inertness, through the scheduler path that cmd/experiments uses.
func TestSweepCSVIdenticalWithSpans(t *testing.T) {
	sizes := []int{200, 350}
	cfg := protocolVariants(13, 4)["WRATE"]
	for _, sc := range []Scenario{Baseline, Tree} {
		bare, err := Sweep(sc, SweepConfig{Sizes: sizes, TopologySeed: 13, Event: cfg})
		if err != nil {
			t.Fatal(err)
		}
		traced, spans := spanVariant(cfg)
		withSpans, err := Sweep(sc, SweepConfig{Sizes: sizes, TopologySeed: 13, Event: traced})
		if err != nil {
			t.Fatal(err)
		}
		if string(uCSV(withSpans)) != string(uCSV(bare)) {
			t.Fatalf("%s: U(X) CSV differs with spans attached:\nbare:\n%s\nspans:\n%s",
				sc.Name, uCSV(bare), uCSV(withSpans))
		}
		if spans.Len() == 0 {
			t.Fatalf("%s: traced sweep recorded no spans", sc.Name)
		}
	}
}

// TestEq1AttributionReconcilesWithAggregates re-derives the Result's
// aggregate counters purely from the event spans' Eq.-1 attribution and
// demands exact (bitwise) float64 equality. Parallelism is 1 so span order
// equals the aggregate's origin fold order; every other quantity is an
// integer sum in float64 (exact and order-independent below 2^53).
func TestEq1AttributionReconcilesWithAggregates(t *testing.T) {
	topo, err := Baseline.Generate(400, 29)
	if err != nil {
		t.Fatal(err)
	}
	for variant, cfg := range protocolVariants(29, 5) {
		cfg.Parallelism = 1
		traced, spans := spanVariant(cfg)
		res, err := RunCEvents(topo, traced)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(res.Origins)

		// Collect event spans in Seq order; with Parallelism=1 they appear
		// as (withdraw, announce) per origin, in the aggregate's fold order.
		var downs, ups []SpanRecord
		for _, s := range spans.Snapshot() {
			switch {
			case s.Level != SpanEvent:
			case s.Name == "withdraw":
				downs = append(downs, s)
			case s.Name == "announce":
				ups = append(ups, s)
			default:
				t.Fatalf("%s: unexpected event span %q", variant, s.Name)
			}
		}
		if len(downs) != res.Origins || len(ups) != res.Origins {
			t.Fatalf("%s: %d withdraw / %d announce spans for %d origins", variant, len(downs), len(ups), res.Origins)
		}

		// Per-span classification closure: every processed update falls in
		// exactly one class.
		for _, s := range append(append([]SpanRecord{}, downs...), ups...) {
			st := s.Stats
			if st["dup"]+st["implicit"]+st["explicit"]+st["new"] != st["updates"] {
				t.Fatalf("%s: span %q origin %d: classes %v do not sum to updates",
					variant, s.Name, s.Origin, st)
			}
		}

		// TotalUpdates: integer sums, exact at any order.
		var total float64
		for i := range downs {
			total += downs[i].Stats["updates"] + ups[i].Stats["updates"]
		}
		if got := total / k; got != res.TotalUpdates {
			t.Fatalf("%s: span TotalUpdates %v != aggregate %v", variant, got, res.TotalUpdates)
		}

		// Per-type per-relation U factor: sum of u_<type>_<rel> over all
		// event spans, divided by k·nodes(type).
		for _, typ := range []NodeType{T, M, CP, C} {
			nodes := res.ByType[typ].Nodes
			if nodes == 0 {
				continue
			}
			for _, rel := range []Relation{Customer, Peer, Provider} {
				key := "u_" + typ.String() + "_" + rel.String()
				var sum float64
				for i := range downs {
					sum += downs[i].Stats[key] + ups[i].Stats[key]
				}
				want := res.ByType[typ].ByRel[rel].U
				if got := sum / (k * float64(nodes)); got != want {
					t.Fatalf("%s: u(%s,%s) from spans %v != aggregate %v", variant, typ, rel, got, want)
				}
			}
		}

		// Path exploration: the per-origin division happens before the fold,
		// so replicate it per origin and fold in span (= origin) order.
		for _, typ := range []NodeType{T, M, CP, C} {
			nodes := res.ByType[typ].Nodes
			if nodes == 0 {
				continue
			}
			key := "explore_" + typ.String()
			var sum float64
			for i := range downs {
				sum += (downs[i].Stats[key] + ups[i].Stats[key]) / float64(nodes)
			}
			if got := sum / k; got != res.PathExploration[typ] {
				t.Fatalf("%s: exploration(%s) from spans %v != aggregate %v", variant, typ, got, res.PathExploration[typ])
			}
		}

		// Convergence times: each event span's virtual extent is the phase's
		// convergence interval, measured at the same two instants.
		var down, up float64
		for i := range downs {
			down += downs[i].Stats["virtual_s"]
			up += ups[i].Stats["virtual_s"]
		}
		if got := down / k; got != res.DownSeconds {
			t.Fatalf("%s: DownSeconds from spans %v != aggregate %v", variant, got, res.DownSeconds)
		}
		if got := up / k; got != res.UpSeconds {
			t.Fatalf("%s: UpSeconds from spans %v != aggregate %v", variant, got, res.UpSeconds)
		}

		// Origin spans restate their own pair's update total.
		var origins []SpanRecord
		for _, s := range spans.Snapshot() {
			if s.Level == SpanOrigin {
				origins = append(origins, s)
			}
		}
		if len(origins) != res.Origins {
			t.Fatalf("%s: %d origin spans for %d origins", variant, len(origins), res.Origins)
		}
		for i, s := range origins {
			if pair := downs[i].Stats["updates"] + ups[i].Stats["updates"]; s.Stats["total_updates"] != pair {
				t.Fatalf("%s: origin span %d total_updates %v != event pair sum %v", variant, i, s.Stats["total_updates"], pair)
			}
		}
	}
}

// TestAttributionGolden freezes what each event's counter window yields:
// the kind, cause, origin, virtual extent and every Stats value of every
// event span of a few small BASELINE cells — C-events and link events, both
// protocol variants, inline and on the windowed executor at two CPUs.
// With one origin worker the spans arrive in origin order and the cause IDs
// count up from 1, so the file is a byte-exact record
// (testdata/golden/attribution.golden, regenerated with -update-goldens).
func TestAttributionGolden(t *testing.T) {
	topo, err := Baseline.Generate(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	for _, kind := range []EventKind{CEventKind, LinkEventKind} {
		for _, variant := range []string{"NO-WRATE", "WRATE"} {
			for _, cpus := range []int{0, 2} { // 0 = inline executor
				cfg := protocolVariants(5, 4)[variant]
				cfg.Kind, cfg.Parallelism = kind, 1
				label := "inline"
				if cpus > 0 {
					// The golden file's label predates the CPU axis.
					cfg, label = shardedVariant(cfg), fmt.Sprintf("windowed shards=%d", cpus)
				}
				traced, spans := spanVariant(cfg)
				var err error
				withCPUs(max(cpus, 1), func() { _, err = RunCEvents(topo, traced) })
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "## %v %s %s\n", kind, variant, label)
				for _, s := range spans.Snapshot() {
					if s.Level != SpanEvent {
						continue
					}
					fmt.Fprintf(&buf, "%s cause=%d origin=%d vstart_us=%.17g vend_us=%.17g\n", s.Name, s.Cause, s.Origin, s.VStartUS, s.VEndUS)
					keys := make([]string, 0, len(s.Stats))
					for k := range s.Stats {
						keys = append(keys, k)
					}
					slices.Sort(keys)
					for _, k := range keys {
						fmt.Fprintf(&buf, "  %s=%.17g\n", k, s.Stats[k])
					}
				}
			}
		}
	}
	checkGolden(t, "attribution", []byte(buf.String()))
}

// TestObsProgressSSEUnderConcurrentGrid streams /progress while a
// concurrent scheduler grid publishes through Scheduler.PublishProgress —
// the feed both cmd/experiments and churnd serve, exercised under -race by
// the CI obs tier. Every data line must be valid JSON and follow SSE
// framing, both event types must arrive, and the last attribution's rolling
// mean must be the mean of the streamed cells' U(X).
func TestObsProgressSSEUnderConcurrentGrid(t *testing.T) {
	srv, err := ServeObs("127.0.0.1:0", NewObsMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sched := NewScheduler(4)
	defer sched.PublishProgress(srv.Progress())()

	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// The banner is written after the subscription exists: from here on no
	// event of the grid can be missed.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": bgpchurn progress stream") {
		t.Fatalf("missing stream banner: %q (err %v)", sc.Text(), sc.Err())
	}

	sizes := []int{200, 300, 400}
	cfg := protocolVariants(11, 3)["NO-WRATE"]
	type outcome struct {
		sw  *SweepResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		sw, err := sched.RunSweep(context.Background(), Baseline,
			SweepConfig{Sizes: sizes, TopologySeed: 11, Event: cfg})
		done <- outcome{sw, err}
	}()

	type attribution struct {
		Cells       int                `json:"cells"`
		Cell        map[string]any     `json:"cell"`
		RollingMean map[string]float64 `json:"rolling_mean"`
	}
	var cellEvents int
	var attrs []attribution
	event := ""
	for len(attrs) < len(sizes) && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			payload := []byte(strings.TrimPrefix(line, "data: "))
			if !json.Valid(payload) {
				t.Fatalf("data line is not valid JSON: %q", line)
			}
			switch event {
			case "cell":
				cellEvents++
			case "attribution":
				var a attribution
				if err := json.Unmarshal(payload, &a); err != nil {
					t.Fatal(err)
				}
				attrs = append(attrs, a)
			}
		}
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if cellEvents != 2*len(sizes) || len(attrs) != len(sizes) {
		t.Fatalf("stream: %d cell and %d attribution events, want %d and %d (scan err %v)",
			cellEvents, len(attrs), 2*len(sizes), len(sizes), sc.Err())
	}

	byN := map[int]*Result{}
	for _, p := range out.sw.Points {
		byN[p.N] = p.R
	}
	types := map[string]NodeType{"u_T": T, "u_M": M, "u_CP": CP, "u_C": C}
	sum := map[string]float64{}
	for i, a := range attrs {
		if a.Cells != i+1 {
			t.Fatalf("attribution %d counts %d cells", i, a.Cells)
		}
		res := byN[int(a.Cell["n"].(float64))]
		if res == nil {
			t.Fatalf("attribution %d names a cell the grid did not return: %v", i, a.Cell)
		}
		for k, typ := range types {
			u := a.Cell[k].(float64)
			if u != res.U(typ) {
				t.Fatalf("attribution %d: cell %s = %v, grid result says %v", i, k, u, res.U(typ))
			}
			sum[k] += u
		}
	}
	last := attrs[len(attrs)-1].RollingMean
	for k := range types {
		if want := sum[k] / float64(len(attrs)); last[k] != want {
			t.Fatalf("last rolling_mean[%s] = %v, want the streamed cells' mean %v", k, last[k], want)
		}
	}
}
