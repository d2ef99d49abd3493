package des

import (
	"runtime"
	"sync"
)

// Cores is the process-wide core budget, counted against
// runtime.GOMAXPROCS(0). A unit is one core's share of it, and every
// goroutine that simulates or generates holds one. Topology generation and
// a cell's origin worker 0 take theirs unconditionally, as do the extra
// origin workers of a fixed parallelism. Helper origin workers take a unit
// only while a core is idle and give it back at their first origin boundary
// on an over-subscribed budget, so concurrent grid cells share the cores
// instead of each starting GOMAXPROCS workers (and Networks) of its own.
// A windowed Network's crew likewise runs one member per unit it can take
// while a core is idle, and returns them when its run returns. DESIGN.md,
// "Core budget", states the bound on the high-water mark.
var Cores Budget

// Budget counts the units held; see Cores.
type Budget struct {
	mu   sync.Mutex
	held int
	peak int // high-water mark of held, for the budget tests
}

// Acquire claims one unit, whatever the number held.
func (b *Budget) Acquire() {
	b.mu.Lock()
	b.held++
	b.peak = max(b.peak, b.held)
	b.mu.Unlock()
}

// TryAcquire claims one unit only while fewer than GOMAXPROCS are held.
func (b *Budget) TryAcquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.held >= runtime.GOMAXPROCS(0) {
		return false
	}
	b.held++
	b.peak = max(b.peak, b.held)
	return true
}

// Release returns one unit taken by Acquire or TryAcquire.
func (b *Budget) Release() {
	b.mu.Lock()
	b.held--
	b.mu.Unlock()
}

// Over reports whether more units are held than there are cores.
func (b *Budget) Over() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held > runtime.GOMAXPROCS(0)
}

// Held returns the units held now and the high-water mark since the last
// ResetPeak.
func (b *Budget) Held() (held, peak int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held, b.peak
}

// ResetPeak starts a new high-water measurement at the units held now.
func (b *Budget) ResetPeak() {
	b.mu.Lock()
	b.peak = b.held
	b.mu.Unlock()
}
