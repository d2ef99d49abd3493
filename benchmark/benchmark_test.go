package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// Highest ladder percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		samples int
		want    float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {67, 85}, {75, 85}, {100, 90},
		{200, 95}, {499, 95}, {500, 98}, {800, 98}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.samples); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.samples, got, tc.want)
		}
	}
	// The nominal tails of the workloads follow from their design counts.
	if tailPercentile(75) != gridTail {
		t.Errorf("gridTail %d is not what 75 cells per pass support", gridTail)
	}
	if tailPercentile(200) != serveTail {
		t.Errorf("serveTail %d is not what a third of a run's ~600 jobs supports", serveTail)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %g, %g, want 1.5, 12", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100]: a [10,40] and b [30,70] overlap (parallel workers), c
	// [80,120] sticks out of root and is clipped; a has a child [15,25].
	spans := []span{
		{ID: 1, Parent: 0, Name: "benchmark.run", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "core.cell", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Name: "core.cell", StartUS: 30, EndUS: 70},
		{ID: 4, Parent: 1, Name: "serve.job", StartUS: 80, EndUS: 120},
		{ID: 5, Parent: 2, Name: "bgp.down_run", StartUS: 15, EndUS: 25},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 100 - (60 + 20), 2: 20, 3: 40, 4: 40, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %g, want %g", id, self[id], w)
		}
	}
	rows, covered, rootS := layerBudget(spans, 1)
	if math.Abs(covered-0.8) > 1e-12 || rootS != 100e-6 {
		t.Errorf("covered %g of %g s, want 0.8 of 1e-4", covered, rootS)
	}
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["core.cell"]; r.Count != 2 || math.Abs(r.SelfS-60e-6) > 1e-15 {
		t.Errorf("core.cell row = %+v, want 2 spans, 60 µs self", r)
	}
	if layerOf("topology.phase.clique_s") != "topology" || layerOf("bgp.new") != "bgp" {
		t.Error("layerOf does not return the module prefix")
	}
	// A nil recorder is tracing switched off.
	var off *recorder
	off.end(off.start(0, "", "x"))
	if off.snapshot() != nil {
		t.Error("nil recorder recorded spans")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        verdict
	}{
		{"same", steady, []float64{101, 100, 100, 99, 103}, true, 0.10, verdictOK},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 107}, true, 0.10, verdictOK},
		{"slower beyond bound", steady, []float64{115, 116, 114, 115, 117}, true, 0.10, verdictWorse},
		{"faster", steady, []float64{80, 81, 79, 80, 82}, true, 0.10, verdictOK},
		{"throughput fell", steady, []float64{85, 86, 84, 85, 87}, false, 0.10, verdictWorse},
		{"throughput rose", steady, []float64{115, 116, 114, 115, 117}, false, 0.10, verdictOK},
		{"noisy and overlapping", []float64{100, 140, 90, 120, 80}, []float64{110, 150, 85, 125, 95}, true, 0.10, verdictUnresolved},
		{"noisy but every run better", []float64{100, 140, 90, 120, 80}, []float64{50, 70, 45, 60, 40}, true, 0.10, verdictOK},
		{"noisy and every run worse", []float64{100, 140, 90, 120, 80}, []float64{200, 280, 180, 240, 160}, true, 0.10, verdictWorse},
	} {
		got, _, _, _ := judge(tc.a, tc.b, tc.lowerBetter, tc.bound)
		if got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"wall","unit":"s","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, traced float64, walls ...float64) string {
		var recs []runRecord
		for _, v := range walls {
			recs = append(recs, runRecord{Provenance: provenance{Workload: "w", Seed: 1}, Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"wall": {v, "s"}}})
		}
		recs = append(recs, runRecord{Provenance: provenance{Workload: "w", Seed: 1, Trace: 1}, Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"bgp.updates_processed": {traced, "count"}}})
		path := filepath.Join(dir, name)
		if err := appendRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1000, 1.00, 1.01, 0.99, 1.00, 1.02)
	same := write("same.json", 1000, 1.01, 1.00, 1.00, 0.99, 1.03)
	slow := write("slow.json", 1000, 1.30, 1.31, 1.29, 1.30, 1.32)
	drift := write("drift.json", 1001, 1.00, 1.01, 0.99, 1.00, 1.02)

	var out bytes.Buffer
	if code, err := compareFiles(&out, spec, a, same); err != nil || code != 0 {
		t.Errorf("A/A: code %d, err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "compare: 0 worse, 0 unresolved") {
		t.Errorf("A/A summary missing:\n%s", out.String())
	}
	out.Reset()
	if code, _ := compareFiles(&out, spec, a, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower must read worse and exit 1, got code %d\n%s", code, out.String())
	}
	out.Reset()
	if code, _ := compareFiles(&out, spec, a, drift); code != 1 || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("a count that does not repeat must be flagged, got code %d\n%s", code, out.String())
	}
}

// TestSpecMatchesBenchmark keeps BENCHMARK.json and the code in step.
func TestSpecMatchesBenchmark(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in code", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}

// TestGoldenIndependentOfCores runs every workload's measured run with the
// worker, shard and client count forced to 1 and to 4: the simulated
// statistics must equal the goldens recorded on a 2-core host.
func TestGoldenIndependentOfCores(t *testing.T) {
	for _, wl := range workloads {
		for _, workers := range []int{1, 4} {
			var out bytes.Buffer
			opt := options{workload: wl.name, seed: goldenSeed, seconds: 1, smoke: true, outDir: t.TempDir(), workers: workers}
			if err := runOne(&out, opt); err != nil {
				t.Fatalf("%s with %d workers: %v\n%s", wl.name, workers, err, out.String())
			}
			rec, err := parseRunOutput(out.Bytes())
			if err != nil {
				t.Fatalf("%s with %d workers: %v", wl.name, workers, err)
			}
			if !rec.Correct || rec.Provenance.Clients != workers {
				t.Errorf("%s with %d workers: correct %v, %d clients\n%s", wl.name, workers, rec.Correct, rec.Provenance.Clients, out.String())
			}
		}
	}
}

// TestSmoke runs every workload's measured run and traced run end to end at
// the smoke scale, checks the outputs against the smoke goldens, and checks
// that each run's last line carries exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			opt := options{workload: wl.Name, seed: goldenSeed, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}
			if err := runOne(&out, opt); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", wl.Name, trace, err, out.String())
			}
			rec, err := parseRunOutput(out.Bytes())
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.Name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failed %d\n%s", wl.Name, trace, rec.Correct, rec.Attempted, rec.Failed, out.String())
			}
			if rec.Provenance.Workload != wl.Name || rec.Provenance.NProc < 1 || rec.Provenance.GoVersion == "" || rec.Provenance.Date == "" {
				t.Errorf("%s trace %d: incomplete provenance %+v", wl.Name, trace, rec.Provenance)
			}
			// Exactly the listed metrics, each once: decode the last line's
			// metrics object key by key, so a duplicate would show.
			last := bytes.TrimSpace(out.Bytes())
			last = last[bytes.LastIndexByte(last, '\n')+1:]
			var line struct {
				Metrics json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(last, &line); err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			dec := json.NewDecoder(bytes.NewReader(line.Metrics))
			dec.Token() // {
			for dec.More() {
				key, _ := dec.Token()
				var mv metricValue
				if err := dec.Decode(&mv); err != nil {
					t.Fatal(err)
				}
				seen[key.(string)]++
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace %d: %s is %g", wl.Name, trace, key, mv.Value)
				}
			}
			for _, m := range want {
				if seen[m.Name] != 1 {
					t.Errorf("%s trace %d: metric %s emitted %d times, want once", wl.Name, trace, m.Name, seen[m.Name])
				}
				if trace == 0 && rec.Metrics[m.Name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
				if rec.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, rec.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if len(seen) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json lists %d", wl.Name, trace, len(seen), len(want))
			}
			if trace == 1 {
				if c := rec.Metrics["trace.covered_frac"].Value; c < 0.95 {
					t.Errorf("%s: named spans cover %.1f%% of the traced phase, want >= 95%%", wl.Name, 100*c)
				}
				if r := rec.Metrics["trace.mirror_updates_ratio"].Value; r != 1 {
					t.Errorf("%s: mirror/program update ratio %g, want 1", wl.Name, r)
				}
			}
		}
	}
}
