package des

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// refItem mirrors item for the container/heap reference implementation the
// hand-rolled queue is checked against.
type refItem struct {
	at  Time
	seq uint32
	id  int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// idEvent tags an event with the id of the reference item pushed alongside
// it, so pop order can be compared across implementations.
type idEvent int

func (idEvent) Fire(*Scheduler) {}

// TestHeapMatchesContainerHeap drives the typed event heap and a
// container/heap reference through the same randomized push/pop schedule
// and asserts identical pop order, including FIFO tie-breaking within
// same-timestamp bursts.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1))
		var got eventHeap
		var want refHeap
		var seq uint32
		id := 0
		ops := 400 + r.Intn(400)
		for op := 0; op < ops; op++ {
			switch {
			case got.len() > 0 && r.Intn(3) == 0:
				g, e := got.pop()
				w := heap.Pop(&want).(refItem)
				if g.at != w.at || g.seq != w.seq || int(e.(idEvent)) != w.id {
					t.Fatalf("trial %d op %d: pop mismatch: got (at=%d seq=%d id=%d), want (at=%d seq=%d id=%d)",
						trial, op, g.at, g.seq, int(e.(idEvent)), w.at, w.seq, w.id)
				}
			default:
				// Bias toward a few timestamps so same-instant bursts (the
				// FIFO tie-break case) are common.
				at := Time(r.Intn(16)) * Second
				if r.Intn(4) == 0 {
					at = Time(r.Int63n(int64(1000 * Second)))
				}
				got.push(at, seq, idEvent(id))
				heap.Push(&want, refItem{at: at, seq: seq, id: id})
				seq++
				id++
			}
		}
		// Drain both; the remaining order must agree exactly.
		var prev heapKey
		first := true
		for got.len() > 0 {
			g, e := got.pop()
			w := heap.Pop(&want).(refItem)
			if g.at != w.at || g.seq != w.seq || int(e.(idEvent)) != w.id {
				t.Fatalf("trial %d drain: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
					trial, g.at, g.seq, w.at, w.seq)
			}
			if !first {
				if g.at < prev.at {
					t.Fatalf("trial %d: time went backwards: %d after %d", trial, g.at, prev.at)
				}
				if g.at == prev.at && g.seq < prev.seq {
					t.Fatalf("trial %d: FIFO tie-break violated at t=%d: seq %d after %d",
						trial, g.at, g.seq, prev.seq)
				}
			}
			prev, first = g, false
		}
		if want.Len() != 0 {
			t.Fatalf("trial %d: reference heap still has %d items", trial, want.Len())
		}
	}
}

// TestHeapFIFOWithinBurst pins the tie-break contract directly: events
// scheduled for the same instant pop in scheduling order.
func TestHeapFIFOWithinBurst(t *testing.T) {
	var s Scheduler
	const burst = 100
	fired := make([]int, 0, burst)
	for i := 0; i < burst; i++ {
		i := i
		s.At(5*Second, EventFunc(func(*Scheduler) { fired = append(fired, i) }))
	}
	s.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("burst fired out of order at %d: got %d", i, v)
		}
	}
}

// TestSchedulerSplitQueueOrdering drives the split ring+heap scheduler with
// delays straddling ringHorizon — including events scheduled from inside
// firing events, the way protocol timers behave — and asserts the global
// fire order matches the (at, seq) sort exactly. The near/far split must be
// invisible. Delays are biased toward the ring's sore spots: zero delays,
// exact bucket-boundary multiples, both sides of ringHorizon, and in-ring
// chains long enough to wrap the ring many times over. Bucket boundaries are
// probed in absolute time (a bucket is at>>ringShift, not a delay), from
// both sides, as is the ring's full span beyond the horizon.
func TestSchedulerSplitQueueOrdering(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 77))
		var s Scheduler
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		var want []rec
		seq := 0
		// schedule queues an event d from now and recursively schedules a
		// few follow-ups when it fires, mixing short and long delays.
		var schedule func(d Time, depth int)
		schedule = func(d Time, depth int) {
			at := s.Now() + d
			id := seq
			seq++
			want = append(want, rec{at, id})
			s.After(d, EventFunc(func(s *Scheduler) {
				fired = append(fired, rec{s.Now(), id})
				if depth > 0 {
					for k := 0; k < 1+r.Intn(2); k++ {
						var nd Time
						switch r.Intn(9) {
						case 0:
							nd = 0
						case 1:
							nd = Time(r.Int63n(int64(ringHorizon)))
						case 2:
							nd = Time(int64(r.Intn(ringBuckets)) << ringShift)
						case 3:
							nd = ringHorizon - Time(r.Intn(3))
						case 4:
							nd = ringHorizon + Time(r.Intn(3))
						case 5:
							// Land on, just below or just above an absolute
							// bucket boundary a few buckets ahead.
							edge := (int64(s.Now())>>ringShift + 1 + int64(r.Intn(8))) << ringShift
							nd = Time(edge) - s.Now() + Time(r.Intn(3)-1)
						case 6:
							// Both sides of the ring's full span, which the
							// horizon must keep out of reach.
							nd = Time(ringBuckets<<ringShift) + Time(r.Intn(5)-2)
						case 7:
							// Several events inside one bucket.
							nd = Time(r.Int63n(1 << ringShift))
						default:
							nd = Time(r.Int63n(int64(40 * Second)))
						}
						schedule(nd, depth-1)
					}
				}
			}))
		}
		for i := 0; i < 30; i++ {
			schedule(Time(r.Int63n(int64(3*ringHorizon))), 3)
		}
		s.Run()
		if len(fired) != seq {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(fired), seq)
		}
		// The reference order is the (at, seq) sort of everything scheduled;
		// seq here equals scheduling order because every At call increments
		// the scheduler's own sequence in lockstep.
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: fire order diverged at %d: got %+v, want %+v", trial, i, fired[i], want[i])
			}
		}
	}
}

// TestRingMatchesContainerHeap is the eventHeap property for the time ring:
// a randomized push/pop schedule under a moving clock, every push within
// ringHorizon of it as the Scheduler guarantees, biased toward bucket
// boundaries, the horizon edge and same-instant bursts. Pop order must equal
// the container/heap reference exactly.
func TestRingMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1001))
		var got timeRing
		var want refHeap
		var seq uint32
		var now Time
		for op := 0; op < 3000; op++ {
			if got.len() > 0 && r.Intn(3) == 0 {
				g, e := got.pop()
				w := heap.Pop(&want).(refItem)
				if g.at != w.at || g.seq != w.seq || int(e.(idEvent)) != w.id {
					t.Fatalf("trial %d op %d: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
						trial, op, g.at, g.seq, w.at, w.seq)
				}
				now = g.at
				continue
			}
			var d Time
			switch r.Intn(6) {
			case 0:
				d = 0
			case 1:
				d = ringHorizon - 1 - Time(r.Intn(2))
			case 2:
				edge := (int64(now)>>ringShift + 1 + int64(r.Intn(ringBuckets-40))) << ringShift
				d = Time(edge) - now + Time(r.Intn(3)-1)
			case 3:
				d = Time(r.Int63n(1 << ringShift))
			default:
				d = Time(r.Int63n(int64(ringHorizon)))
			}
			if d >= ringHorizon {
				d = ringHorizon - 1
			}
			got.push(now+d, seq, idEvent(int(seq)))
			heap.Push(&want, refItem{at: now + d, seq: seq, id: int(seq)})
			seq++
		}
		for got.len() > 0 {
			g, _ := got.pop()
			w := heap.Pop(&want).(refItem)
			if g.at != w.at || g.seq != w.seq {
				t.Fatalf("trial %d drain: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
					trial, g.at, g.seq, w.at, w.seq)
			}
		}
	}
}

// TestSchedulerDenseBurstOrdering packs thousands of events into one virtual
// millisecond — the density of an internet-scale cell's busiest phase, where
// the former 1 ms buckets degenerated into long insertion sorts — with pops
// interleaved between pushes, and asserts the fire order is exactly the
// (at, seq) sort.
func TestSchedulerDenseBurstOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s Scheduler
	type key struct {
		at  Time
		seq int
	}
	var fired, want []key
	seq := 0
	push := func() {
		// Never before the clock; mostly inside the next millisecond, with
		// repeated instants for FIFO ties.
		at := s.Now() + Time(r.Int63n(int64(Millisecond)))
		if r.Intn(8) == 0 {
			at = s.Now() + Time(r.Intn(4))*100*Microsecond
		}
		k := key{at, seq}
		seq++
		want = append(want, k)
		s.At(at, EventFunc(func(*Scheduler) { fired = append(fired, k) }))
	}
	for i := 0; i < 6000; i++ {
		push()
		if i%3 == 2 {
			s.Step()
		}
	}
	s.Run()
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(fired) != len(want) {
		t.Fatalf("fired %d of %d events", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fire order diverged at %d: got %+v, want %+v", i, fired[i], want[i])
		}
	}
}

// The shapes an Event's dynamic value can take, so that the look-ahead's
// read of the interface data word (eventData) meets each of them: a pointer
// to a long-lived object (what the BGP engine schedules), a closure, a
// multi-word value the interface boxes and — in TestEventDataIsTheOwner only,
// since it can carry no id — a zero-size value. The others can tell their id
// without firing.
type ptrEvent struct {
	id   int
	fire func(*Scheduler)
	pad  [LookaheadBytes]byte
}

func (e *ptrEvent) Fire(s *Scheduler) { e.fire(s) }

// funcEvent fires when called with a scheduler and only reports its id when
// called with nil.
type funcEvent func(*Scheduler) int

func (f funcEvent) Fire(s *Scheduler) { f(s) }

type boxedEvent struct {
	id   int
	fire func(*Scheduler)
}

func (e boxedEvent) Fire(s *Scheduler) { e.fire(s) }

type zeroEvent struct{}

func (zeroEvent) Fire(*Scheduler) {}

func idOf(e Event) int {
	switch e := e.(type) {
	case *ptrEvent:
		return e.id
	case funcEvent:
		return e(nil)
	case boxedEvent:
		return e.id
	}
	panic("unknown event type")
}

// TestLookaheadIsInert drives the whole Scheduler — Step, RunUntil with
// deadlines, Run, and Reset with events still pending — in lockstep with a
// container/heap reference, using events of every dynamic shape that
// schedule follow-ups from inside Fire, a share of them at the current
// instant, i.e. ahead of the event fireNext has just peeked and prefetched.
// Every fire must be the reference's minimum. And whenever the look-ahead
// could run — at the start of every Fire, which is the queue state fireNext
// peeked, and between calls — the event it would name (peekEvent) must be
// the reference's pending minimum: a prefetch aimed at a fired, reset or
// recycled slab entry would name some other id.
func TestLookaheadIsInert(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 4242))
		var s Scheduler
		for epoch := 0; epoch < 3; epoch++ {
			var want refHeap
			var seq uint32
			fires := 0
			checkLookahead := func(when string) {
				if s.Len() != want.Len() {
					t.Fatalf("trial %d epoch %d %s: %d pending, reference has %d", trial, epoch, when, s.Len(), want.Len())
				}
				if s.Len() > 0 {
					if got := idOf(s.peekEvent()); got != want[0].id {
						t.Fatalf("trial %d epoch %d %s: look-ahead names event %d, the pending minimum is %d", trial, epoch, when, got, want[0].id)
					}
				}
			}
			var schedule func(d Time, depth int)
			schedule = func(d Time, depth int) {
				id := int(seq)
				fire := func(s *Scheduler) {
					fires++
					if w := heap.Pop(&want).(refItem); w.id != id || w.at != s.Now() {
						t.Fatalf("trial %d epoch %d: fired event %d at %d, reference minimum is %d at %d", trial, epoch, id, s.Now(), w.id, w.at)
					}
					checkLookahead("at the start of Fire")
					for k := 0; depth > 0 && k < r.Intn(3); k++ {
						switch r.Intn(4) {
						case 0:
							schedule(0, depth-1) // ahead of whatever was peeked
						case 1:
							schedule(Time(r.Int63n(int64(Millisecond))), depth-1)
						case 2:
							schedule(Time(r.Int63n(int64(ringHorizon))), depth-1)
						default:
							schedule(ringHorizon+Time(r.Int63n(int64(40*Second))), depth-1)
						}
					}
				}
				var e Event
				switch r.Intn(4) {
				case 0:
					e = funcEvent(func(s *Scheduler) int {
						if s != nil {
							fire(s)
						}
						return id
					})
				case 1:
					e = boxedEvent{id: id, fire: fire}
				default:
					e = &ptrEvent{id: id, fire: fire}
				}
				heap.Push(&want, refItem{at: s.Now() + d, seq: seq, id: id})
				seq++
				s.After(d, e)
			}
			for i := 0; i < 40; i++ {
				schedule(Time(r.Int63n(int64(2*ringHorizon))), 3)
			}
			abandon := 1 << 30
			if epoch < 2 {
				abandon = 60 + r.Intn(60) // Reset with events pending
			}
			for s.Len() > 0 && fires < abandon {
				checkLookahead("between calls")
				switch r.Intn(8) {
				case 0:
					s.Run()
				case 1, 2:
					s.RunUntil(s.Now() + Time(r.Int63n(int64(ringHorizon))))
				default:
					s.Step()
				}
			}
			checkLookahead("at the end")
			s.Reset(true)
		}
	}
}

// TestEventDataIsTheOwner pins what the look-ahead prefetches: for an event
// of pointer type the interface's data word is the object's own address, so
// the LookaheadBytes that follow are the object's first lines.
func TestEventDataIsTheOwner(t *testing.T) {
	e := &ptrEvent{}
	if got, want := eventData(e), uintptr(unsafe.Pointer(e)); got != want {
		t.Fatalf("eventData(*ptrEvent) = %#x, the object is at %#x", got, want)
	}
	// Any other shape yields some address; the prefetch must accept all of
	// them, nil included.
	for _, ev := range []Event{EventFunc(func(*Scheduler) {}), boxedEvent{}, zeroEvent{}, nil} {
		prefetchLine(eventData(ev) + LookaheadBytes - cacheLine)
	}
}
