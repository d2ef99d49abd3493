package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceRecord is one processed update in the bounded trace ring: the
// virtual completion time, the sending and receiving ASes, the prefix and
// the update kind. Records are fixed-size on purpose — the AS path is
// carried as an intern identity (PathID) and a length, never as a slice —
// so appending never allocates, the ring's memory is bounded by its
// capacity alone, and a record can never retain engine-owned path storage
// across a Network Reset (TestTraceRecordFixedSize guards this).
type TraceRecord struct {
	// T is the virtual time in nanoseconds since simulation start.
	T int64 `json:"t"`
	// From and To are the sending and receiving AS node IDs.
	From int32 `json:"from"`
	To   int32 `json:"to"`
	// Prefix is the affected destination.
	Prefix int32 `json:"prefix"`
	// Kind is 0 for announce, 1 for withdraw.
	Kind uint8 `json:"kind"`
	// PathLen is the AS-path length (0 for withdrawals).
	PathLen uint16 `json:"path_len,omitempty"`
	// Cause is the root-cause ID of the routing event (C-event phase or
	// link event) whose propagation produced this update; 0 when causal
	// tracing is off.
	Cause uint32 `json:"cause,omitempty"`
	// PathID is the hash-consed path identity (0 on withdrawals).
	PathID uint32 `json:"path_id,omitempty"`
}

// KindString names the record's update kind.
func (r TraceRecord) KindString() string {
	if r.Kind == 1 {
		return "withdraw"
	}
	return "announce"
}

// DefaultTraceCap is the ring capacity used when NewUpdateTrace is given a
// non-positive one: 65536 records ≈ 1.25 MB, several C-events' worth of
// updates at paper scale.
const DefaultTraceCap = 1 << 16

// UpdateTrace is a bounded ring buffer of update records, shared by every
// worker of an experiment. When full, the oldest records are overwritten
// (Dropped counts them), so the ring always holds the most recent window —
// the part that matters when debugging a cold/warm divergence after the
// fact. Append takes a mutex: the trace is an opt-in debugging aid on the
// update path, not a steady-state probe, and a mutex keeps concurrently
// appended records intact (no torn reads at snapshot time). It never
// allocates after construction.
type UpdateTrace struct {
	mu      sync.Mutex
	buf     []TraceRecord
	next    int  // index the next record is written to
	full    bool // the ring has wrapped at least once
	dropped uint64
}

// NewUpdateTrace creates a ring holding up to capacity records
// (DefaultTraceCap if capacity <= 0).
func NewUpdateTrace(capacity int) *UpdateTrace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &UpdateTrace{buf: make([]TraceRecord, capacity)}
}

// Append records one update, overwriting the oldest record when full.
func (t *UpdateTrace) Append(r TraceRecord) {
	t.mu.Lock()
	if t.full {
		t.dropped++
	}
	t.buf[t.next] = r
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Len returns the number of records currently held.
func (t *UpdateTrace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Dropped returns how many records were overwritten by the ring wrapping.
func (t *UpdateTrace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the held records oldest-first, as a fresh slice.
func (t *UpdateTrace) Snapshot() []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]TraceRecord(nil), t.buf[:t.next]...)
	}
	out := make([]TraceRecord, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// WriteJSONL writes the held records oldest-first, one JSON object per
// line.
func (t *UpdateTrace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Snapshot() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceJSONL parses a stream produced by WriteJSONL. Blank lines are
// skipped; a malformed line is an error naming its line number.
func ReadTraceJSONL(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
