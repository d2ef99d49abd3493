package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// ProgressBroker fans run-progress events out to any number of SSE
// subscribers (the /progress endpoint). Publishers never block: each
// subscriber has a bounded buffer, and a subscriber that cannot keep up
// loses events (Dropped counts them) rather than stalling the sweep.
// The broker is the serving primitive a long-lived sweep daemon reuses:
// publish per-cell status and rolling attribution summaries as they land,
// and every connected client sees the grid advance mid-run.
type ProgressBroker struct {
	mu      sync.Mutex
	subs    map[chan progressMsg]struct{}
	latest  map[string]progressMsg // last message per event type, replayed to new subscribers
	order   []string               // event types in first-seen order, for deterministic replay
	seq     uint64
	dropped atomic.Uint64
	closed  bool
}

type progressMsg struct {
	event string
	id    uint64
	data  []byte
}

// subBuffer is each subscriber's channel capacity. A slow client sampling
// a fast grid drops intermediate events and still sees the latest state.
const subBuffer = 64

// NewProgressBroker creates a broker with no subscribers.
func NewProgressBroker() *ProgressBroker {
	return &ProgressBroker{
		subs:   make(map[chan progressMsg]struct{}),
		latest: make(map[string]progressMsg),
	}
}

// Publish marshals payload as JSON and sends it to every subscriber as an
// SSE event of the given type (e.g. "cell", "attribution", "summary").
// Non-blocking: a full subscriber buffer drops the event for that
// subscriber. The last message of each type is retained and replayed to
// new subscribers so a client connecting mid-grid starts with state.
func (b *ProgressBroker) Publish(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	msg := progressMsg{event: event, id: b.seq, data: data}
	if _, seen := b.latest[event]; !seen {
		b.order = append(b.order, event)
	}
	b.latest[event] = msg
	for ch := range b.subs {
		select {
		case ch <- msg:
		default:
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Dropped returns how many events were lost to slow subscribers.
func (b *ProgressBroker) Dropped() uint64 { return b.dropped.Load() }

// Subscribers returns the number of currently connected subscribers.
func (b *ProgressBroker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close disconnects every subscriber and freezes the broker: Publish becomes
// a no-op, and a later subscriber gets the retained events and the end of
// the stream. Safe to call more than once.
func (b *ProgressBroker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
	b.mu.Unlock()
}

// subscribe returns the replay of the latest message per event type and,
// unless the broker is closed, registers a new subscriber and returns its
// channel (nil when closed: the replay is all there is).
func (b *ProgressBroker) subscribe() (chan progressMsg, []progressMsg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := make([]progressMsg, 0, len(b.order))
	for _, ev := range b.order {
		replay = append(replay, b.latest[ev])
	}
	if b.closed {
		return nil, replay
	}
	ch := make(chan progressMsg, subBuffer)
	b.subs[ch] = struct{}{}
	return ch, replay
}

func (b *ProgressBroker) unsubscribe(ch chan progressMsg) {
	b.mu.Lock()
	if _, ok := b.subs[ch]; ok {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// ServeHTTP implements the SSE endpoint: text/event-stream framing with
// per-event `event:`, `id:` and `data:` fields. The stream runs until the
// client disconnects or the broker closes; on a closed broker it is the
// replay alone.
func (b *ProgressBroker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, replay := b.subscribe()
	if ch != nil {
		defer b.unsubscribe(ch)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An immediate comment line gets headers and an initial byte to the
	// client before the first event, so curl-style readers unblock.
	fmt.Fprintf(w, ": bgpchurn progress stream\n\n")
	writeMsg := func(m progressMsg) bool {
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", m.event, m.id, m.data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	fl.Flush()
	for _, m := range replay {
		if !writeMsg(m) {
			return
		}
	}
	if ch == nil {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case m, ok := <-ch:
			if !ok {
				return
			}
			if !writeMsg(m) {
				return
			}
		}
	}
}
