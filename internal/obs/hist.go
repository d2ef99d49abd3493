package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram. Bucket semantics follow
// Prometheus: an observation v lands in the first bucket whose upper bound
// is >= v (bounds are inclusive), and observations above the last bound
// land in the implicit +Inf overflow bucket. Buckets are fixed at
// construction — no resizing, no allocation on Observe.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf is implicit
	// counts has len(bounds)+1 entries; the last is the +Inf overflow
	// bucket. The sum is stored as float64 bits updated by CAS —
	// observations are per window, cell or generation (never per simulated
	// event), so the CAS loop is cold.
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Name returns the exposition name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (bounds inclusive)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations in bucket i (NOT cumulative). Counts has one more entry
	// than Bounds: the +Inf overflow bucket.
	Bounds []float64
	Counts []uint64
	// Count and Sum are the total observation count and value sum.
	Count uint64
	Sum   float64
}

// Snapshot reads the histogram. Buckets are read one at a time, so a
// snapshot taken during an Observe may count it in Count but not yet in Sum.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for b := range h.counts {
		s.Counts[b] = h.counts[b].Load()
		s.Count += s.Counts[b]
	}
	return s
}
