package core

import (
	"runtime"
	"sync"
)

// cores is the process-wide core budget, counted against
// runtime.GOMAXPROCS(0). Every goroutine that simulates or generates holds
// one unit: topology generation in Scheduler.computeOnce and the goroutine
// calling RunCEventsContext (origin worker 0) take theirs unconditionally,
// as do the extra workers of a fixed Config.Parallelism. Helper origin
// workers of a Parallelism-0 experiment take a unit only while a core is
// idle and give it back at their first origin boundary on an over-subscribed
// budget, so concurrent grid cells share the cores instead of each starting
// GOMAXPROCS workers (and Networks) of its own. DESIGN.md, "Core budget",
// states the bound on the high-water mark.
var cores coreBudget

type coreBudget struct {
	mu   sync.Mutex
	held int
	peak int // high-water mark of held, for the budget tests
}

// acquire claims one unit, whatever the number held.
func (b *coreBudget) acquire() {
	b.mu.Lock()
	b.held++
	b.peak = max(b.peak, b.held)
	b.mu.Unlock()
}

// tryAcquire claims one unit only while fewer than GOMAXPROCS are held.
func (b *coreBudget) tryAcquire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.held >= runtime.GOMAXPROCS(0) {
		return false
	}
	b.held++
	b.peak = max(b.peak, b.held)
	return true
}

// release returns one unit taken by acquire or tryAcquire.
func (b *coreBudget) release() {
	b.mu.Lock()
	b.held--
	b.mu.Unlock()
}

// over reports whether more units are held than there are cores.
func (b *coreBudget) over() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held > runtime.GOMAXPROCS(0)
}
