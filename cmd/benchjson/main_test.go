package main

import "testing"

func TestParseLine(t *testing.T) {
	name, procs, bm, ok := parseLine("BenchmarkKernelDecide-2   \t 1000\t 12.5 ns/op\t 0 B/op\t 0 allocs/op")
	if !ok || name != "BenchmarkKernelDecide" || procs != 2 || bm.Iterations != 1000 ||
		bm.Metrics["ns/op"] != 12.5 || bm.Metrics["allocs/op"] != 0 {
		t.Fatalf("parsed %q procs=%d %+v ok=%v", name, procs, bm, ok)
	}
	// GOMAXPROCS=1 runs carry no suffix; a trailing -word is part of the name.
	name, procs, _, ok = parseLine("BenchmarkScaleCell/n=10000-warm \t 1\t 5 ns/op")
	if !ok || name != "BenchmarkScaleCell/n=10000-warm" || procs != 0 {
		t.Fatalf("parsed %q procs=%d ok=%v", name, procs, ok)
	}
	if _, _, _, ok := parseLine("BenchmarkBroken-2 notanumber"); ok {
		t.Fatal("accepted a malformed line")
	}
}

func TestSummarize(t *testing.T) {
	run := func(ns, rss float64) Benchmark {
		return Benchmark{Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "peakRSS-MB": rss}}
	}
	if one := summarize([]Benchmark{run(5, 1)}); one.Runs != 0 || one.Min != nil || one.Metrics["ns/op"] != 5 {
		t.Fatalf("a single run must be recorded as it is: %+v", one)
	}
	odd := summarize([]Benchmark{run(30, 3), run(10, 1), run(20, 2)})
	if odd.Runs != 3 || odd.Metrics["ns/op"] != 20 || odd.Min["ns/op"] != 10 || odd.Max["ns/op"] != 30 || odd.Metrics["peakRSS-MB"] != 2 {
		t.Fatalf("three runs: %+v", odd)
	}
	if even := summarize([]Benchmark{run(10, 1), run(40, 1), run(20, 1), run(30, 1)}); even.Metrics["ns/op"] != 25 {
		t.Fatalf("four runs: median %v, want 25", even.Metrics["ns/op"])
	}
}
