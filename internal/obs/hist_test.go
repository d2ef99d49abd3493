package obs

import (
	"math"
	"sync"
	"testing"
)

func newTestHist(bounds []float64) *Histogram {
	return newHistogram("test_seconds", "test", bounds)
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Prometheus semantics: upper bounds are inclusive — an observation
	// exactly equal to a bound lands in that bound's bucket, not the next.
	h := newTestHist([]float64{1, 2.5, 5})
	cases := []struct {
		v      float64
		bucket int // index into Counts; 3 is +Inf
	}{
		{0, 0},
		{0.999, 0},
		{1, 0}, // exactly on the first bound
		{1.0000001, 1},
		{2.5, 1}, // exactly on the second bound
		{4.9, 2},
		{5, 2}, // exactly on the last bound
		{5.0001, 3},
		{1e9, 3},
	}
	for _, c := range cases {
		h2 := newTestHist([]float64{1, 2.5, 5})
		h2.Observe(c.v)
		s := h2.Snapshot()
		for i, n := range s.Counts {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%v): Counts[%d] = %d, want %d", c.v, i, n, want)
			}
		}
	}
	_ = h
}

func TestHistogramSumAndCount(t *testing.T) {
	h := newTestHist([]float64{1, 10})
	vals := []float64{0.5, 1, 7, 100}
	for _, v := range vals {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(vals))
	}
	if math.Abs(s.Sum-108.5) > 1e-9 {
		t.Fatalf("Sum = %v, want 108.5", s.Sum)
	}
	wantCounts := []uint64{2, 1, 1} // {0.5,1}, {7}, {100}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("Counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
}

// TestHistogramShardWraps: observations from many goroutines at once —
// the windowed coordinators of concurrent cells share one skew histogram —
// land exactly: every count, and a sum of exactly representable values.
func TestHistogramShardWraps(t *testing.T) {
	h := newTestHist([]float64{1})
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(0.5)
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Counts[0] != goroutines*per || s.Counts[1] != goroutines*per {
		t.Fatalf("Counts = %v, want %d in each bucket", s.Counts, goroutines*per)
	}
	if want := 2.5 * goroutines * per; s.Sum != want {
		t.Fatalf("Sum = %v, want %v", s.Sum, want)
	}
}

func TestHistogramUnsortedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted bounds")
		}
	}()
	newTestHist([]float64{5, 1})
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := newTestHist([]float64{0.001, 0.01, 0.1, 1, 10})
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.05)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f per run, want 0", allocs)
	}
}
