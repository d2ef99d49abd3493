package des

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestFiresInTimeOrder(t *testing.T) {
	var s Scheduler
	times := []Time{50, 10, 30, 20, 40, 10, 5}
	var fired []Time
	for _, at := range times {
		at := at
		s.At(at, EventFunc(func(s *Scheduler) {
			fired = append(fired, s.Now())
		}))
	}
	n := s.Run()
	if n != uint64(len(times)) {
		t.Fatalf("fired %d events, want %d", n, len(times))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order: %v", fired)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, EventFunc(func(*Scheduler) { order = append(order, i) }))
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var s Scheduler
	var secondAt Time
	s.At(10, EventFunc(func(s *Scheduler) {
		s.After(5, EventFunc(func(s *Scheduler) { secondAt = s.Now() }))
	}))
	s.Run()
	if secondAt != 15 {
		t.Fatalf("chained event fired at %d, want 15", secondAt)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var s Scheduler
	s.At(10, EventFunc(func(s *Scheduler) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, EventFunc(func(*Scheduler) {}))
	}))
	s.Run()
}

func TestRunUntilDeadline(t *testing.T) {
	var s Scheduler
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, EventFunc(func(s *Scheduler) { fired = append(fired, s.Now()) }))
	}
	n := s.RunUntil(25)
	if n != 2 {
		t.Fatalf("RunUntil(25) fired %d, want 2", n)
	}
	if s.Now() != 25 {
		t.Fatalf("clock at %d after RunUntil(25)", s.Now())
	}
	if s.Len() != 2 {
		t.Fatalf("%d events left, want 2", s.Len())
	}
	// Resume to completion.
	if n := s.Run(); n != 2 {
		t.Fatalf("resume fired %d, want 2", n)
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	var s Scheduler
	s.At(3, EventFunc(func(*Scheduler) {}))
	if n := s.RunUntil(100); n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	if s.Now() != 100 {
		t.Fatalf("clock at %d after draining RunUntil(100), want 100", s.Now())
	}
	// Negative deadline (Run) leaves the clock at the last event.
	s.At(150, EventFunc(func(*Scheduler) {}))
	s.Run()
	if s.Now() != 150 {
		t.Fatalf("clock at %d after Run, want 150", s.Now())
	}
}

func TestStop(t *testing.T) {
	var s Scheduler
	count := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i), EventFunc(func(s *Scheduler) {
			count++
			if count == 3 {
				s.Stop()
			}
		}))
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt the loop: fired %d", count)
	}
	if s.Len() != 7 {
		t.Fatalf("pending after Stop = %d, want 7", s.Len())
	}
}

func TestStep(t *testing.T) {
	var s Scheduler
	fired := 0
	s.At(1, EventFunc(func(*Scheduler) { fired++ }))
	s.At(2, EventFunc(func(*Scheduler) { fired++ }))
	if !s.Step() || fired != 1 {
		t.Fatal("first Step did not fire exactly one event")
	}
	if !s.Step() || fired != 2 {
		t.Fatal("second Step did not fire exactly one event")
	}
	if s.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestReset(t *testing.T) {
	var s Scheduler
	s.At(5, EventFunc(func(*Scheduler) {}))
	s.Run()
	s.At(7, EventFunc(func(*Scheduler) {}))
	s.Reset()
	if s.Len() != 0 || s.Now() != 0 {
		t.Fatal("Reset did not clear queue and clock")
	}
	// Scheduler is reusable after Reset.
	ok := false
	s.At(1, EventFunc(func(*Scheduler) { ok = true }))
	s.Run()
	if !ok {
		t.Fatal("scheduler unusable after Reset")
	}
}

// TestTakePushes: the push counts split by band, restart on every take,
// and survive Reset, whose discarded events were pushed all the same.
func TestTakePushes(t *testing.T) {
	var s Scheduler
	nop := EventFunc(func(*Scheduler) {})
	s.At(1, nop)
	s.At(2, nop)
	s.At(ringHorizon, nop)
	s.Reset()
	if ring, far := s.TakePushes(); ring != 2 || far != 1 {
		t.Fatalf("TakePushes = %d, %d; want 2, 1", ring, far)
	}
	if ring, far := s.TakePushes(); ring != 0 || far != 0 {
		t.Fatalf("second TakePushes = %d, %d; want 0, 0", ring, far)
	}
}

func TestPeekTime(t *testing.T) {
	var s Scheduler
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported an event")
	}
	s.At(9, EventFunc(func(*Scheduler) {}))
	s.At(4, EventFunc(func(*Scheduler) {}))
	if at, ok := s.PeekTime(); !ok || at != 4 {
		t.Fatalf("PeekTime = %d,%v want 4,true", at, ok)
	}
}

func TestSecondsConversion(t *testing.T) {
	if got := (30 * Second).Seconds(); got != 30 {
		t.Fatalf("(30s).Seconds() = %v", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Fatalf("(500ms).Seconds() = %v", got)
	}
}

// Property: any multiset of scheduled times fires in nondecreasing order and
// every event fires exactly once.
func TestPropertyAllFireOrdered(t *testing.T) {
	f := func(raw []uint32) bool {
		var s Scheduler
		var fired []Time
		for _, r := range raw {
			at := Time(r % 10000)
			s.At(at, EventFunc(func(s *Scheduler) { fired = append(fired, s.Now()) }))
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	var s Scheduler
	noop := EventFunc(func(*Scheduler) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(Time(i), noop)
		if s.Len() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

func TestNextWindow(t *testing.T) {
	const w = 50 * Millisecond
	cases := []struct{ tmin, want Time }{
		{-3, w}, // nothing has a negative time; the first window still ends at w
		{0, w},  // an event at 0 belongs to the first window
		{1, w},
		{w - 1, w},
		{w, w},         // an exact multiple closes its own window
		{w + 1, 2 * w}, // one past it opens the next
		{2 * w, 2 * w},
		{7*w + 1, 8 * w},
		{7*w + w/2, 8 * w},
	}
	for _, c := range cases {
		got := NextWindow(c.tmin, w)
		if got != c.want {
			t.Errorf("NextWindow(%d, %d) = %d, want %d", c.tmin, w, got, c.want)
		}
		// The lookahead property: tmin lies in (end-w, end].
		if c.tmin > 0 && !(got-w < c.tmin && c.tmin <= got) {
			t.Errorf("NextWindow(%d, %d) = %d does not contain tmin", c.tmin, w, got)
		}
	}
	if got := NextWindow(5, 1); got != 5 {
		t.Errorf("NextWindow(5, 1) = %d, want 5", got)
	}
}
