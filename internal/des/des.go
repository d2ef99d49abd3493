// Package des implements the discrete-event simulation core: a virtual
// clock and an event queue ordered by firing time with deterministic FIFO
// tie-breaking.
//
// Time is an int64 count of virtual nanoseconds since the start of the
// simulation. Events scheduled for the same instant fire in the order they
// were scheduled, which makes simulations reproducible for a fixed seed.
package des

import (
	"math/bits"
	"time"
	"unsafe"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds reports t as a floating-point number of microseconds — the
// unit Chrome trace_event timestamps use, so span exporters convert once.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String renders t like the standard library's time.Duration ("30s").
func (t Time) String() string { return time.Duration(t).String() }

// Event is a unit of work scheduled to fire at a given virtual time.
type Event interface {
	// Fire executes the event. The scheduler passes itself so the event can
	// schedule follow-up events and read the clock.
	Fire(s *Scheduler)
}

// EventFunc adapts an ordinary function to the Event interface.
type EventFunc func(s *Scheduler)

// Fire calls f(s).
func (f EventFunc) Fire(s *Scheduler) { f(s) }

// heapKey is a queue entry's sort key plus the slab slot of its event. seq
// breaks ties deterministically (FIFO); keys never compare equal because
// seq is unique. idx plays no part in the ordering.
//
// The struct is exactly 16 bytes so that the heapArity children scanned by
// one sift-down level share a single cache line. seq is stored narrowed to
// uint32 — Reserve panics before the scheduler-wide counter could wrap a
// key's seq within one epoch (a Reset rewinds it), so the narrowing is
// loss-free where it matters: among coexisting keys.
type heapKey struct {
	at  Time
	seq uint32
	idx int32
}

// before reports whether a fires strictly before b: earlier time, or FIFO
// (lower seq) among same-instant events.
func before(a, b heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled 4-ary min-heap on (at, seq). It deliberately
// does not go through container/heap: that interface moves every element in
// and out of the queue as an interface{}, boxing entries on each push and
// pop. The typed sift routines below keep entries in the backing slices, so
// scheduling an event allocates only when the slices must grow.
//
// Layout and arity are chosen for the sift routines, the hottest loops in
// the simulator: events sit in a stable slab addressed by heapKey.idx, so
// sifting moves only plain 16-byte keys — no interface copies and, since
// keys are pointer-free, no GC write barriers — and the arity of 4 halves
// the tree depth relative to a binary heap. Both sift routines move keys
// into a hole rather than swapping, writing each displaced key once. The
// pop order is a pure function of the (at, seq) keys — unique by
// construction — so the layout cannot reorder events.
type eventHeap struct {
	keys []heapKey
	slab []Event // stable event storage; keys[i].idx addresses it
	free []int32 // recycled slab slots
}

const heapArity = 4

func (h *eventHeap) len() int { return len(h.keys) }

// push inserts an entry and restores the heap invariant.
func (h *eventHeap) push(at Time, seq uint32, e Event) {
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[idx] = e
	} else {
		idx = int32(len(h.slab))
		h.slab = append(h.slab, e)
	}
	k := heapKey{at: at, seq: seq, idx: idx}
	h.keys = append(h.keys, k)
	keys := h.keys
	// Sift up: walk the hole toward the root, pulling parents down.
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !before(k, keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

// pop removes and returns the minimum entry. The caller must ensure the
// heap is non-empty.
func (h *eventHeap) pop() (heapKey, Event) {
	keys := h.keys
	topK := keys[0]
	e := h.slab[topK.idx]
	h.slab[topK.idx] = nil // release the event for GC
	h.free = append(h.free, topK.idx)
	n := len(keys) - 1
	lastK := keys[n]
	h.keys = keys[:n]
	keys = keys[:n]
	// Sift down: walk the root hole toward the leaves, pulling the smallest
	// child up, until the former last key fits.
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		min, mv := c, keys[c]
		for k := c + 1; k < end; k++ {
			if before(keys[k], mv) {
				min, mv = k, keys[k]
			}
		}
		if before(lastK, mv) {
			break
		}
		keys[i] = mv
		i = min
	}
	if n > 0 {
		keys[i] = lastK
	}
	return topK, e
}

// reset discards all entries, keeping the storage.
func (h *eventHeap) reset() {
	clear(h.slab) // release the dropped events for GC
	h.keys = h.keys[:0]
	h.slab = h.slab[:0]
	h.free = h.free[:0]
}

// The pending queue is split in two bands: events scheduled less than
// ringHorizon ahead of the clock go to a bucketed time ring with O(1) pops,
// everything further out to the 4-ary far heap. The split is a pure
// performance device — correctness never depends on it, because every pop
// compares both band minima under the same (at, seq) order. It exploits the
// workload's shape: the queue is dominated by message deliveries, which
// always enter within MaxProcessingDelay (sub-second) of now, while the
// sparse slow timers (MRAI flushes, dampening reuse: tens of virtual
// seconds) stay out of the hot band entirely.

// Ring geometry: ringBuckets buckets of 2^ringShift virtual nanoseconds
// (≈65.5 µs), spanning ≈134 ms. A bucket is sized so that even the densest
// phase of an internet-scale cell (hundreds of deliveries per virtual
// millisecond) leaves a handful of entries per bucket and the insertion sort
// in push stays a one- or two-step affair. ringHorizon bounds how far ahead
// of the clock an entry may sit: it must stay at least one bucket short of
// the full span so that the absolute bucket numbers of coexisting entries —
// all in [now, now+ringHorizon] — cover at most ringBuckets distinct values
// and a masked slot never holds two epochs at once. It is pinned to the
// value the coarser 128 × 2^20 ns geometry used (127 << 20 ns, i.e. 2032 of
// the 2048 buckets), so which band an event lands in — and with it every
// push counter — is independent of the bucket width.
const (
	ringShift   = 16
	ringBuckets = 2048
	ringMask    = ringBuckets - 1
	ringHorizon = Time(127 << 20)
)

// The horizon must leave at least one bucket of slack (see above); a
// geometry that violates it fails to compile.
const _ = uint((ringBuckets-1)<<ringShift - ringHorizon)

// ringBucket is one time slice of the ring: entries[head:] is the bucket's
// live content, sorted by (at, seq). head advances on pop so the front is
// removed without memmove; the bucket rewinds when it empties.
type ringBucket struct {
	entries []heapKey
	head    int
}

// timeRing is a calendar queue over the next ringHorizon of virtual time.
// push appends into the target bucket with a short insertion sort (buckets
// hold a handful of entries), pop takes the front of the first non-empty
// bucket at or after the clock's bucket — no sifting at all, which is what
// makes it beat the heap for the delivery-dominated near band. A two-level
// occupancy bitmap (one bit per bucket, one summary bit per bitmap word)
// makes skipping any run of empty buckets O(1), and lets reset visit only
// the buckets in use. Events live in the same stable-slab arrangement as
// eventHeap, keyed by heapKey.idx.
type timeRing struct {
	buckets [ringBuckets]ringBucket
	occ     [ringWords]uint64 // occupancy bitmap over masked indices
	words   uint64            // bit w set iff occ[w] != 0
	cur     int64             // absolute bucket number (at>>ringShift), ≤ every entry's
	count   int
	slab    []Event
	free    []int32
}

// ringWords is the occupancy bitmap's length; its summary fits one word.
const ringWords = ringBuckets / 64

const _ = uint(64 - ringWords)

func (r *timeRing) len() int { return r.count }

// push inserts an entry; at must be within ringHorizon of the clock (the
// Scheduler routes by that rule).
func (r *timeRing) push(at Time, seq uint32, e Event) {
	var idx int32
	if n := len(r.free); n > 0 {
		idx = r.free[n-1]
		r.free = r.free[:n-1]
		r.slab[idx] = e
	} else {
		idx = int32(len(r.slab))
		r.slab = append(r.slab, e)
	}
	k := heapKey{at: at, seq: seq, idx: idx}
	ab := int64(at) >> ringShift
	if r.count == 0 || ab < r.cur {
		r.cur = ab
	}
	m := int(ab) & ringMask
	b := &r.buckets[m]
	b.entries = append(b.entries, k)
	// Insertion sort within the bucket's live region; buckets are tiny.
	for i := len(b.entries) - 1; i > b.head && before(k, b.entries[i-1]); i-- {
		b.entries[i] = b.entries[i-1]
		b.entries[i-1] = k
	}
	r.occ[m>>6] |= 1 << (m & 63)
	r.words |= 1 << (m >> 6)
	r.count++
}

// advance moves cur forward to the first non-empty bucket. The caller must
// ensure the ring is non-empty. All entries sit within ringBuckets of cur,
// so the first occupied bucket in wrapping order from cur's masked index is
// the right absolute bucket: the rest of cur's own bitmap word, else the
// first non-empty word after it (wrapping, and ending on cur's word again
// for buckets below cur's bit), found through the summary word.
func (r *timeRing) advance() {
	m := int(r.cur) & ringMask
	w := m >> 6
	if x := r.occ[w] >> (m & 63); x != 0 {
		r.cur += int64(bits.TrailingZeros64(x))
		return
	}
	// Rotate the summary so that bit 0 stands for word w+1.
	k := (w + 1) % ringWords
	rot := (r.words>>k | r.words<<(ringWords-k)) & (1<<ringWords - 1)
	if rot == 0 {
		panic("des: timeRing.advance on empty ring")
	}
	w = (k + bits.TrailingZeros64(rot)) % ringWords
	next := w<<6 + bits.TrailingZeros64(r.occ[w])
	r.cur += int64((next - m + ringBuckets) & ringMask)
}

// min returns the earliest entry's key without removing it. The caller must
// ensure the ring is non-empty.
func (r *timeRing) min() heapKey {
	b := &r.buckets[int(r.cur)&ringMask]
	if b.head >= len(b.entries) {
		r.advance()
		b = &r.buckets[int(r.cur)&ringMask]
	}
	return b.entries[b.head]
}

// pop removes and returns the earliest entry. The caller must ensure the
// ring is non-empty.
func (r *timeRing) pop() (heapKey, Event) {
	k := r.min() // positions cur on the first non-empty bucket
	m := int(r.cur) & ringMask
	b := &r.buckets[m]
	b.head++
	if b.head == len(b.entries) {
		b.entries = b.entries[:0]
		b.head = 0
		if r.occ[m>>6] &^= 1 << (m & 63); r.occ[m>>6] == 0 {
			r.words &^= 1 << (m >> 6)
		}
	}
	r.count--
	e := r.slab[k.idx]
	r.slab[k.idx] = nil // release the event for GC
	r.free = append(r.free, k.idx)
	return k, e
}

// reset discards all entries, keeping the storage.
func (r *timeRing) reset() {
	// A bucket that emptied by popping has rewound itself; the occupied
	// ones are exactly those the bitmap names.
	for ws := r.words; ws != 0; ws &= ws - 1 {
		w := bits.TrailingZeros64(ws)
		for x := r.occ[w]; x != 0; x &= x - 1 {
			b := &r.buckets[w<<6+bits.TrailingZeros64(x)]
			b.entries, b.head = b.entries[:0], 0
		}
		r.occ[w] = 0
	}
	r.words = 0
	r.cur = 0
	r.count = 0
	clear(r.slab) // release the dropped events for GC
	r.slab = r.slab[:0]
	r.free = r.free[:0]
}

// Scheduler owns the virtual clock and the pending-event queue.
// The zero value is a ready-to-use scheduler at time 0.
type Scheduler struct {
	now     Time
	near    timeRing  // events scheduled < ringHorizon from their push time
	far     eventHeap // events scheduled >= ringHorizon ahead
	nextSeq uint64
	stopped bool
	// ringPushes and farPushes count insertions into each band since the
	// last TakePushes: plain fields, since a Scheduler is single-goroutine.
	ringPushes, farPushes uint64
}

// TakePushes returns how many events were inserted into the time ring and
// into the far heap since the previous call, and restarts both counts. The
// owner of the scheduler publishes them (the BGP engine, once per run).
func (s *Scheduler) TakePushes() (ring, far uint64) {
	ring, far = s.ringPushes, s.farPushes
	s.ringPushes, s.farPushes = 0, 0
	return ring, far
}

// peek returns the key of the earliest pending event and whether it sits in
// the near band. The caller must ensure at least one event is pending.
func (s *Scheduler) peek() (k heapKey, near bool) {
	if s.near.len() > 0 {
		if nk := s.near.min(); s.far.len() == 0 || before(nk, s.far.keys[0]) {
			return nk, true
		}
	}
	return s.far.keys[0], false
}

// peekEvent returns the earliest pending event without removing it. The
// caller must ensure at least one event is pending.
func (s *Scheduler) peekEvent() Event {
	k, near := s.peek()
	if near {
		return s.near.slab[k.idx]
	}
	return s.far.slab[k.idx]
}

// popNext removes and returns the earliest pending event. The caller must
// ensure at least one event is pending.
func (s *Scheduler) popNext() (heapKey, Event) {
	if _, near := s.peek(); near {
		return s.near.pop()
	}
	return s.far.pop()
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return s.near.len() + s.far.len() }

// At schedules e to fire at the absolute virtual time at. Scheduling in the
// past (before Now) panics: it would silently reorder causality.
func (s *Scheduler) At(at Time, e Event) {
	s.AtTicket(s.Reserve(at), e)
}

// Ticket is a reserved queue position: the (time, sequence) key an event
// scheduled at reservation time would have received. It lets a caller that
// serializes its own work — a FIFO receiver draining one message at a time —
// keep only its next event in the scheduler queue while later ones wait
// outside it, without perturbing the global fire order: the deferred event
// fires exactly when and in the order it would have had it been scheduled
// eagerly.
type Ticket struct {
	at  Time
	seq uint64
}

// Time returns the virtual time the ticket is reserved for.
func (tk Ticket) Time() Time { return tk.at }

// Reserve allocates the queue position an event scheduled now for time at
// would get, without inserting anything. Redeem it with AtTicket.
// Reserving in the past panics, like At.
func (s *Scheduler) Reserve(at Time) Ticket {
	if at < s.now {
		panic("des: event scheduled in the past")
	}
	if s.nextSeq >= 1<<32 {
		// heapKey narrows seq to uint32; wrapping would corrupt FIFO order
		// silently. One epoch never comes close (Reset rewinds the counter).
		panic("des: sequence counter exhausted; Reset the scheduler")
	}
	tk := Ticket{at: at, seq: s.nextSeq}
	s.nextSeq++
	return tk
}

// AtTicket schedules e at the reserved position tk. The reservation's time
// must not have passed yet.
func (s *Scheduler) AtTicket(tk Ticket, e Event) {
	if tk.at < s.now {
		panic("des: ticketed event scheduled in the past")
	}
	if tk.at-s.now >= ringHorizon {
		s.far.push(tk.at, uint32(tk.seq), e)
		s.farPushes++
	} else {
		s.near.push(tk.at, uint32(tk.seq), e)
		s.ringPushes++
	}
}

// After schedules e to fire d nanoseconds from now.
func (s *Scheduler) After(d Time, e Event) {
	s.At(s.now+d, e)
}

// Stop makes Run return after the currently firing event completes.
// Pending events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Run fires events in timestamp order until the queue is empty or Stop is
// called. It returns the number of events fired during this call.
func (s *Scheduler) Run() uint64 {
	return s.RunUntil(-1)
}

// RunUntil fires events whose time is <= deadline (or all events if
// deadline is negative) until the queue drains or Stop is called. With a
// non-negative deadline the clock always ends at the deadline (virtual time
// passes even when nothing happens); with a negative deadline it ends at
// the last fired event.
func (s *Scheduler) RunUntil(deadline Time) uint64 {
	s.stopped = false
	var fired uint64
	for s.Len() > 0 && !s.stopped {
		if deadline >= 0 {
			if k, _ := s.peek(); k.at > deadline {
				break
			}
		}
		s.fireNext()
		fired++
	}
	if deadline >= 0 && s.now < deadline && !s.stopped {
		s.now = deadline
	}
	return fired
}

// Step fires exactly one event if any is pending and reports whether it did.
func (s *Scheduler) Step() bool {
	if s.Len() == 0 {
		return false
	}
	s.fireNext()
	return true
}

// LookaheadBytes is how much of the next event's object fireNext prefetches
// while the current event fires: three 64-byte cache lines from the address
// in the Event interface's data word. An event type that is a long-lived
// object (the BGP engine schedules its nodes and output queues themselves)
// gets the most out of it by keeping what its Fire touches first inside
// that span. Measured on an n = 50k cell, run-loop time per event: two lines
// -16 %, three -20 %, four -20 % (DESIGN.md, "Miss overlap").
const LookaheadBytes = 3 * cacheLine

const cacheLine = 64

// fireNext pops the earliest pending event, advances the clock to it and
// fires it; the caller must ensure one is pending. It is the only place
// events fire, and it is a two-deep software pipeline: before firing event k
// it peeks the event that is the queue minimum now — with rare exceptions
// the one that fires next — and prefetches the head of that event's object,
// so the cache misses of the next Fire's first touches overlap this Fire's
// work instead of stalling the next one. At internet scale an event lands on
// an effectively random node and those first touches were a fifth of the run.
//
// The look-ahead cannot change a result: it reads the queue without
// modifying its content (peek may advance the ring's cursor over buckets that
// are already empty, exactly as the next pop would), reads no clock, draws no
// randomness, counts nothing, and the prefetch instruction itself has no
// architectural effect. If Fire schedules something earlier than the peeked
// event, a line was fetched early for nothing.
func (s *Scheduler) fireNext() {
	k, e := s.popNext()
	s.now = k.at
	if s.Len() > 0 {
		a := eventData(s.peekEvent())
		for off := uintptr(0); off < LookaheadBytes; off += cacheLine {
			prefetchLine(a + off)
		}
	}
	e.Fire(s)
}

// eventData returns the data word of e's interface value: for an event of
// pointer type, the address of the object itself (the engine allocates no
// event objects — its events are its nodes, queues and timers); for any other
// dynamic type, the address of the boxed copy, or of the closure for an
// EventFunc. Only ever used as a prefetch hint.
func eventData(e Event) uintptr {
	return uintptr((*[2]unsafe.Pointer)(unsafe.Pointer(&e))[1])
}

// Reset discards all pending events and rewinds the clock to zero, reusing
// the queue's storage. The push counts are TakePushes's, which Reset leaves
// alone.
func (s *Scheduler) Reset() {
	s.near.reset()
	s.far.reset()
	s.now = 0
	s.nextSeq = 0
	s.stopped = false
}

// PeekTime returns the firing time of the earliest pending event.
// ok is false when the queue is empty.
func (s *Scheduler) PeekTime() (at Time, ok bool) {
	if s.Len() == 0 {
		return 0, false
	}
	k, _ := s.peek()
	return k.at, true
}
