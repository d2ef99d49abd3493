package des

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestCrewRunsEveryTaskOncePerPhase drives crews smaller and larger than the
// machine through many phases and checks the contract Do documents: each of
// the n tasks runs exactly once per phase, on a valid worker, and is
// finished (its writes visible) when Do returns. Run it under -race
// -count=10 with a -timeout that would catch a hung join.
func TestCrewRunsEveryTaskOncePerPhase(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 7, 64} {
			ran := make([]int, n) // plain ints: Do's join must order them
			var total atomic.Int64
			crew := StartCrew(workers, n, func(worker, i int) {
				if worker < 0 || worker >= workers {
					t.Errorf("task %d ran on worker %d of %d", i, worker, workers)
				}
				ran[i]++
				total.Add(1)
			})
			const phases = 300
			for p := 1; p <= phases; p++ {
				crew.Do()
				for i, c := range ran {
					if c != p {
						t.Fatalf("workers=%d n=%d phase %d: task %d ran %d times", workers, n, p, i, c)
					}
				}
				if p%100 == 0 {
					// Let the workers park, so the next phase exercises the
					// wake path and not only the spin.
					time.Sleep(time.Millisecond)
				}
			}
			crew.Stop()
			if got := total.Load(); got != phases*int64(n) {
				t.Fatalf("workers=%d n=%d: %d task runs, want %d", workers, n, got, phases*n)
			}
		}
	}
}

// TestCrewStopJoinsWorkers checks that no goroutine outlives Stop.
func TestCrewStopJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		crew := StartCrew(6, 12, func(int, int) {})
		if round%2 == 0 { // also a crew that never ran a phase
			crew.Do()
		}
		crew.Stop()
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to return to want. Stop has
// already joined the workers; the loop only covers the instant between a
// goroutine's last statement and the runtime retiring it.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestCrewPhaseDoesNotAllocate pins the steady state: a phase is a release
// and a join on goroutines that already exist.
func TestCrewPhaseDoesNotAllocate(t *testing.T) {
	crew := StartCrew(3, 8, func(int, int) {})
	defer crew.Stop()
	crew.Do()
	if allocs := testing.AllocsPerRun(200, crew.Do); allocs != 0 {
		t.Fatalf("Crew.Do allocates %.1f objects per phase, want 0", allocs)
	}
}
