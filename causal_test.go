package bgpchurn

// Causal-tracing tier. Two properties anchor the tracing layer:
//
//  1. Inertness — attaching a SpanRecorder (which turns on the engine's
//     causal trace) must not change a single observable bit of any result,
//     at any shard count, for either protocol variant. Cause IDs ride the
//     existing event structs and the tracer only ever reads engine state.
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

// TestResultIdenticalWithSpans proves the tracer inert: spans on vs off,
// across scenarios, protocol variants and shard counts, results are
// byte-identical — and the tracer actually ran (spans were recorded).
func TestResultIdenticalWithSpans(t *testing.T) {
	for _, sc := range []Scenario{Baseline, Tree} {
		topo, err := sc.Generate(400, 37)
		if err != nil {
			t.Fatal(err)
		}
		for variant, cfg := range protocolVariants(37, 5) {
			for _, shards := range []int{0, 1, 4} { // 0 = unsharded executor
				base := cfg
				label := "unsharded"
				if shards > 0 {
					base = shardedVariant(base, shards)
					label = fmt.Sprintf("shards=%d", shards)
				}
				bare, err := RunCEvents(topo, base)
				if err != nil {
					t.Fatal(err)
				}
				traced, spans := spanVariant(base)
				got, err := RunCEvents(topo, traced)
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
// equals the reducer's origin fold order; every other quantity is an
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
		// as (withdraw, announce) per origin, in the reducer's fold order.
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

// TestTraceRingRecordsCauseAndPathIdentity covers the -trace ring's
// fixed-size retention: records must carry the root-cause ID and the
// interned path identity instead of the engine-owned path slice, and stay
// meaningful after the per-origin Resets.
func TestTraceRingRecordsCauseAndPathIdentity(t *testing.T) {
	topo, err := Baseline.Generate(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperiment(7)
	cfg.Origins = 2
	// Warm start: the pre-event routing state is installed directly, so every
	// update the ring sees belongs to a cause window. (A cold start's initial
	// propagation flood is deliberately uncaused — it is setup, not an event.)
	cfg.WarmStart = true
	cfg.Trace = NewUpdateTrace(1 << 16)
	cfg.Spans = NewSpanRecorder()
	if _, err := RunCEvents(topo, cfg); err != nil {
		t.Fatal(err)
	}
	recs := cfg.Trace.Snapshot()
	if len(recs) == 0 {
		t.Fatal("trace ring captured no updates")
	}
	announces := 0
	for _, r := range recs {
		if r.Cause == 0 {
			t.Fatalf("record %+v has no root cause despite tracing on", r)
		}
		if r.Kind == 0 { // announce
			announces++
			if r.PathLen == 0 {
				t.Fatalf("announce record %+v has zero path length", r)
			}
			if r.PathID == 0 {
				t.Fatalf("announce record %+v has no interned path identity", r)
			}
		} else if r.PathLen != 0 || r.PathID != 0 {
			t.Fatalf("withdraw record %+v carries path identity", r)
		}
	}
	if announces == 0 {
		t.Fatal("trace ring captured no announcements")
	}
}

// TestObsProgressSSEUnderConcurrentGrid streams /progress while a
// concurrent scheduler grid publishes cell and attribution events through
// the broker — the cmd/experiments wiring, exercised under -race by the CI
// obs tier. Every data line must be valid JSON and follow SSE framing.
func TestObsProgressSSEUnderConcurrentGrid(t *testing.T) {
	srv, err := ServeObs("127.0.0.1:0", NewObsMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	broker := srv.Progress()

	sched := NewScheduler(4)
	sched.OnCell = func(cs CellStatus) {
		broker.Publish("cell", map[string]any{
			"scenario": cs.Scenario, "n": cs.N, "state": cs.State.String(),
		})
	}
	sched.OnResult = func(cs CellStatus, res *Result) {
		broker.Publish("attribution", map[string]any{
			"scenario": cs.Scenario, "n": cs.N, "total_updates": res.TotalUpdates,
		})
	}

	cfg := protocolVariants(11, 3)["NO-WRATE"]
	done := make(chan error, 1)
	go func() {
		_, err := sched.RunSweep(context.Background(), Baseline,
			SweepConfig{Sizes: []int{200, 300, 400}, TopologySeed: 11, Event: cfg})
		done <- err
	}()

	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawCell, sawAttr := false, false
	sc := bufio.NewScanner(resp.Body)
	for (!sawCell || !sawAttr) && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: cell"):
			sawCell = true
		case strings.HasPrefix(line, "event: attribution"):
			sawAttr = true
		case strings.HasPrefix(line, "data: "):
			if payload := strings.TrimPrefix(line, "data: "); !json.Valid([]byte(payload)) {
				t.Fatalf("data line is not valid JSON: %q", line)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !sawCell || !sawAttr {
		t.Fatalf("stream missing events: cell=%v attribution=%v (scan err %v)", sawCell, sawAttr, sc.Err())
	}
}
