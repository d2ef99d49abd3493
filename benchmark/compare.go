package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// side summarises one recording's runs of one metric on one workload.
type side struct {
	n          int
	median     float64
	q1, q3     float64
	spread     float64 // (q3 - q1) / median, the driver's measure
	best, wrst float64 // best and worst single run, by the metric's direction
}

func summarise(xs []float64, lowerBetter bool) side {
	s := side{n: len(xs), median: median(xs)}
	s.q1, s.q3 = quartiles(xs)
	if s.median != 0 {
		s.spread = (s.q3 - s.q1) / s.median
	}
	lo, hi := quantile(xs, 0), quantile(xs, 1)
	s.best, s.wrst = hi, lo
	if lowerBetter {
		s.best, s.wrst = lo, hi
	}
	return s
}

// judge applies one bound to two sets of runs. B is worse when its median is
// worse than A's by more than the bound. Where either side's run-to-run
// spread is wider than the bound the medians cannot carry that claim: the
// verdict is unresolved, unless the two sides do not overlap at all (every
// run of B better than every run of A is ok, every run worse is worse).
func judge(a, b []float64, lowerBetter bool, bound float64) (verdict, side, side, float64) {
	sa, sb := summarise(a, lowerBetter), summarise(b, lowerBetter)
	worseBy := ratio(sb.median-sa.median, sa.median) // share of A's median by which B is worse
	better := func(x, y float64) bool { return x > y }
	if lowerBetter {
		better = func(x, y float64) bool { return x < y }
	} else {
		worseBy = -worseBy
	}
	if sa.spread > bound || sb.spread > bound {
		switch {
		case better(sb.wrst, sa.best):
			return verdictOK, sa, sb, worseBy
		case better(sa.wrst, sb.best) && worseBy > bound:
			return verdictWorse, sa, sb, worseBy
		}
		return verdictUnresolved, sa, sb, worseBy
	}
	if worseBy > bound {
		return verdictWorse, sa, sb, worseBy
	}
	return verdictOK, sa, sb, worseBy
}

// exactCounts are the program's own counts, which must repeat exactly
// between two recordings of the same workload and seed. serve_tenants is
// time-boxed (its job count varies), so its counts are not compared.
var exactCounts = []string{"bgp.updates_processed", "des.events_fired", "core.sched.cells_computed", "core.sched.cache_hits"}

// compareFiles prints one row per end-to-end metric × workload and returns
// exit code 1 when any row reads worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 1, err
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return 1, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return 1, err
	}
	values := func(recs []runRecord, wl, metric string, trace int) (xs []float64) {
		for _, r := range recs {
			if r.Provenance.Workload == wl && r.Provenance.Trace == trace {
				if mv, ok := r.Metrics[metric]; ok {
					xs = append(xs, mv.Value)
				}
			}
		}
		return xs
	}
	failedFrac := func(recs []runRecord, wl string) float64 {
		var failed, attempted float64
		for _, r := range recs {
			if r.Provenance.Workload == wl {
				failed += float64(r.Failed)
				attempted += float64(r.Attempted)
			}
		}
		return ratio(failed, attempted)
	}

	worse, unresolved := 0, 0
	fmt.Fprintf(w, "A = %s, B = %s, bounds from %s\n", pathA, pathB, specPath)
	fmt.Fprintf(w, "%-18s %-18s %5s %12s %8s %12s %8s %9s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A iqr", "B median", "B iqr", "B worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(ra, wl.Name, m.Name, 0), values(rb, wl.Name, m.Name, 0)
			if len(a) < 2 || len(b) < 2 {
				fmt.Fprintf(w, "%-18s %-18s %5s  needs at least two runs on each side\n", wl.Name, m.Name, fmt.Sprintf("%d/%d", len(a), len(b)))
				unresolved++
				continue
			}
			v, sa, sb, worseBy := judge(a, b, m.Better == "lower", m.Bound)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-18s %5s %12.6g %7.1f%% %12.6g %7.1f%% %+8.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, fmt.Sprintf("%d/%d", sa.n, sb.n), sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*worseBy, 100*m.Bound, v)
		}
		fa, fb := failedFrac(ra, wl.Name), failedFrac(rb, wl.Name)
		v := verdictOK
		if fb > fa { // any increase
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-18s %-18s %5s %12.6g %8s %12.6g %8s %9s %6s  %s\n", wl.Name, "failed_frac", "", fa, "", fb, "", "", "any", v)
	}

	// Counts the program makes itself: exact repeat per workload and seed.
	type key struct {
		wl   string
		seed uint64
	}
	traced := func(recs []runRecord) map[key]runRecord {
		m := map[key]runRecord{}
		for _, r := range recs {
			if r.Provenance.Trace == 1 && r.Provenance.Workload != "serve_tenants" {
				m[key{r.Provenance.Workload, r.Provenance.Seed}] = r
			}
		}
		return m
	}
	ta, tb := traced(ra), traced(rb)
	var keys []key
	for k := range ta {
		if _, ok := tb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return keys[i].wl < keys[j].wl
		}
		return keys[i].seed < keys[j].seed
	})
	for _, k := range keys {
		for _, name := range exactCounts {
			va, vb := ta[k].Metrics[name].Value, tb[k].Metrics[name].Value
			v := "same"
			if va != vb {
				v = "DIFFERS"
				worse++
			}
			fmt.Fprintf(w, "%-18s %-28s seed %-4d %14.0f %14.0f  %s\n", k.wl, name, k.seed, va, vb, v)
		}
	}
	fmt.Fprintf(w, "compare: %d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1, nil
	}
	return 0, nil
}
