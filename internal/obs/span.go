package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span levels, outermost to innermost. A sweep holds cells, a cell holds
// origins (one per simulated C-event source), and an origin holds events
// (the DOWN withdrawal phase and the UP re-announcement phase of one
// C-event, or one link failure/restore). The levels are plain strings so
// the recorder stays neutral: it knows nothing about BGP or the scheduler.
const (
	SpanSweep  = "sweep"
	SpanCell   = "cell"
	SpanOrigin = "origin"
	SpanEvent  = "event"
)

// SpanRecord is one completed span. Wall-clock fields are microseconds
// since the recorder's epoch; virtual-time fields are microseconds of
// simulation time (zero when the span has no virtual extent, e.g. a sweep).
// Stats carries the span's attribution numbers — for event spans the live
// Eq.-1 decomposition (updates, duplicate/implicit-withdrawal counts,
// per-type×relation U/q/e terms) keyed by short stable names.
type SpanRecord struct {
	Level string `json:"level"`
	Name  string `json:"name"`
	// Seq orders spans by completion within one recorder.
	Seq int64 `json:"seq"`
	// StartUS/DurUS are wall-clock microseconds relative to the recorder
	// epoch.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// VStartUS/VEndUS are virtual-time microseconds (simulation clock).
	VStartUS float64 `json:"vstart_us,omitempty"`
	VEndUS   float64 `json:"vend_us,omitempty"`
	// Scenario and N identify the grid cell the span belongs to.
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n,omitempty"`
	// Origin is the event-originating node for origin/event spans.
	Origin int64 `json:"origin,omitempty"`
	// Cause is the event's root-cause ID (bgp.CauseID).
	Cause uint64 `json:"cause,omitempty"`
	// Stats holds attribution numbers (see package bgp's EventAttribution).
	Stats map[string]float64 `json:"stats,omitempty"`
}

// SpanRecorder collects completed spans from concurrent workers. It is an
// opt-in tracing aid: appends take a mutex and may allocate, but they
// happen at phase boundaries (per event, per origin, per cell) — never on
// the per-update hot path.
type SpanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	seq   int64
	spans []SpanRecord
	// publish, when set via OnSpan, receives every span as it completes
	// (outside the recorder lock), feeding live progress streams.
	publish func(SpanRecord)
}

// NewSpanRecorder creates an empty recorder whose wall-clock epoch is now.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{epoch: time.Now()}
}

// Now returns the wall-clock microseconds since the recorder's epoch, for
// stamping SpanRecord.StartUS before the work being spanned begins.
func (r *SpanRecorder) Now() float64 {
	return float64(time.Since(r.epoch)) / float64(time.Microsecond)
}

// OnSpan installs fn to be called for every span appended from now on
// (nil uninstalls). fn runs on the appending goroutine, outside the
// recorder lock; it must be safe for concurrent calls.
func (r *SpanRecorder) OnSpan(fn func(SpanRecord)) {
	r.mu.Lock()
	r.publish = fn
	r.mu.Unlock()
}

// Append records a completed span, assigning its Seq.
func (r *SpanRecorder) Append(s SpanRecord) {
	r.mu.Lock()
	s.Seq = r.seq
	r.seq++
	r.spans = append(r.spans, s)
	fn := r.publish
	r.mu.Unlock()
	if fn != nil {
		fn(s)
	}
}

// Len returns the number of spans recorded so far.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Snapshot returns the recorded spans in Seq order, as a fresh slice.
// Concurrent workers append in completion order, which is already Seq
// order, but the sort makes the contract explicit.
func (r *SpanRecorder) Snapshot() []SpanRecord {
	r.mu.Lock()
	out := append([]SpanRecord(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSONL writes the recorded spans in Seq order, one JSON object per
// line — the `-spans FILE` format.
func (r *SpanRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpanJSONL parses a stream produced by WriteJSONL. Blank lines are
// skipped; a malformed line is an error naming its line number.
func ReadSpanJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("obs: span line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteChromeTrace writes the recorded spans as Chrome trace_event JSON
// (load via chrome://tracing or https://ui.perfetto.dev). Wall-clock spans
// land on pid 1 with one tid per level, so the sweep→cell→origin→event
// nesting reads as a flame graph; spans with a virtual-time extent are
// duplicated on pid 2 against the simulation clock, which lines events up
// by when they happened in the model rather than when a worker ran them.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	type chromeEvent struct {
		Name string             `json:"name"`
		Cat  string             `json:"cat"`
		Ph   string             `json:"ph"`
		TS   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		PID  int                `json:"pid"`
		TID  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	tid := func(level string) int {
		switch level {
		case SpanSweep:
			return 1
		case SpanCell:
			return 2
		case SpanOrigin:
			return 3
		default:
			return 4
		}
	}
	var evs []chromeEvent
	for _, s := range r.Snapshot() {
		name := s.Name
		if s.Scenario != "" {
			name = fmt.Sprintf("%s %s/n=%d", s.Name, s.Scenario, s.N)
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: s.Level, Ph: "X",
			TS: s.StartUS, Dur: s.DurUS,
			PID: 1, TID: tid(s.Level), Args: s.Stats,
		})
		if s.VEndUS > s.VStartUS {
			evs = append(evs, chromeEvent{
				Name: name, Cat: s.Level + "-virtual", Ph: "X",
				TS: s.VStartUS, Dur: s.VEndUS - s.VStartUS,
				PID: 2, TID: tid(s.Level), Args: s.Stats,
			})
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"traceEvents":`); err != nil {
		return err
	}
	if evs == nil {
		evs = []chromeEvent{}
	}
	if err := enc.Encode(evs); err != nil {
		return err
	}
	// json.Encoder terminates with \n; the closing brace follows it.
	if _, err := bw.WriteString("}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
