package des

// Conservative parallel-window coordination for a model partitioned across
// several Schedulers.
//
// Such a model runs in lockstep windows: pick (a lower bound on) the
// earliest pending event time across the partitions, round it up to the next
// multiple of the lookahead (the minimum latency of any cross-partition
// interaction), run every partition to that barrier — in parallel, since
// nothing fired inside the window can affect another partition before the
// barrier — and repeat. The helpers here are purely mechanical: NextWindow
// places the barriers, a Crew executes one window's per-partition tasks on a
// fixed set of goroutines with a single join. The correctness argument (and
// the canonical message merge order that makes the composition
// deterministic) lives with the caller, see DESIGN.md "Sharded DES".

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// NextWindow returns the end of the synchronization window containing tmin:
// the smallest positive multiple of width that is >= tmin. Every event
// fired in the window therefore has fire time s with
// NextWindow-width < s <= NextWindow, so a message it emits with latency
// >= width arrives strictly after the window — the conservative-lookahead
// property that makes running the window's schedulers in parallel exact.
func NextWindow(tmin, width Time) Time {
	if tmin <= 0 {
		return width
	}
	return ((tmin-1)/width + 1) * width
}

// crewSpin is how many times a waiting crew member polls (about a nanosecond
// each) before it parks on the condition variable. A phase's join is usually
// tens of microseconds away — the coordinator's serial section, or the tail
// of the last task — which is what parking and waking a goroutine costs, so
// polling that long first saves the round trip when the wait is short and
// at most doubles it when it is long. A crew larger than the machine does
// not poll at all: its waiting members would hold the CPUs the working ones
// need (the race tier runs 8 members on 2 CPUs).
const crewSpin = 30000

// Crew is a fixed set of workers that repeatedly execute a phase of n
// independent tasks: every Do call hands tasks 0..n-1 out through one atomic
// cursor — first come, first served, so a worker that finishes a light task
// claims the next one instead of idling — and returns when all n have run.
// The caller of Do is worker 0; StartCrew starts the other workers-1
// goroutines once and Stop joins them, so a phase costs one release and one
// join, no goroutine creation and no allocation.
//
// Only tasks that have been claimed hold the phase open: a worker that is
// slow to wake delays nothing, it simply finds the cursor exhausted. A claim
// carries its phase number in the same atomic word as the cursor, so a
// straggler can never mistake a later phase's task for the one it woke up
// for.
type Crew struct {
	task func(worker, i int)
	n    int

	// ctr is phase<<32 | claims made in that phase. A claim is Add(1); it
	// owns task (low half − 1) when that is < n.
	ctr atomic.Uint64
	// left counts the current phase's tasks not yet finished.
	left atomic.Int32
	stop atomic.Bool

	// sleepers counts members parked on cond; wake skips the lock when none
	// is. spin is this crew's poll budget (crewSpin or 0).
	sleepers atomic.Int32
	spin     int
	mu       sync.Mutex
	cond     sync.Cond
	wg       sync.WaitGroup
}

// StartCrew starts a crew of the given size (>= 1, the caller included) for
// phases of n tasks. task(worker, i) runs task i on crew member worker
// (0 <= worker < workers); within a phase distinct tasks may run
// concurrently, and everything a task wrote is visible to the caller when Do
// returns. Every StartCrew must be paired with a Stop.
func StartCrew(workers, n int, task func(worker, i int)) *Crew {
	c := &Crew{task: task, n: n}
	if workers <= runtime.GOMAXPROCS(0) {
		c.spin = crewSpin
	}
	c.cond.L = &c.mu
	c.ctr.Store(uint64(n)) // phase 0 is exhausted: the workers wait for Do
	c.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.work(w)
	}
	return c
}

// Do runs one phase: tasks 0..n-1, each exactly once, on the crew. Call it
// from the goroutine that called StartCrew.
func (c *Crew) Do() {
	phase := uint32(c.ctr.Load()>>32) + 1
	c.left.Store(int32(c.n))
	c.ctr.Store(uint64(phase) << 32)
	c.wake()
	for {
		i := int(uint32(c.ctr.Add(1))) - 1
		if i >= c.n {
			break
		}
		c.task(0, i)
		c.left.Add(-1)
	}
	c.await(func() bool { return c.left.Load() == 0 })
}

// Stop makes the workers exit and waits for them. The crew must be idle (no
// Do in progress).
func (c *Crew) Stop() {
	c.stop.Store(true)
	c.wake()
	c.wg.Wait()
}

func (c *Crew) work(worker int) {
	defer c.wg.Done()
	for {
		v := c.ctr.Add(1)
		if i := int(uint32(v)) - 1; i < c.n {
			c.task(worker, i)
			if c.left.Add(-1) == 0 {
				c.wake() // the caller may be parked in Do
			}
			continue
		}
		phase := uint32(v >> 32)
		c.await(func() bool { return uint32(c.ctr.Load()>>32) != phase || c.stop.Load() })
		if c.stop.Load() {
			return
		}
	}
}

// await returns once ready reports true: it polls briefly, then parks. ready
// must read only atomics, and whoever makes it true must call wake after.
func (c *Crew) await(ready func() bool) {
	for i := 0; i < c.spin; i++ {
		if ready() {
			return
		}
	}
	c.mu.Lock()
	// Registered before the re-check: a waker that misses this increment
	// made its change before it, so the check below sees it.
	c.sleepers.Add(1)
	for !ready() {
		c.cond.Wait()
	}
	c.sleepers.Add(-1)
	c.mu.Unlock()
}

// wake releases every parked member to re-check its condition.
func (c *Crew) wake() {
	if c.sleepers.Load() == 0 {
		return
	}
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}
