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
