package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"bgpchurn/internal/obs"
)

// NewCellLogger returns a callback that logs one line per cell event to w in
// the given format: "text" (or "") for the aligned FormatCellEvent lines,
// "json" for the event's record as JSON, one object per line. The callback
// is safe for concurrent use, though schedulers already serialize
// SubscribeCells deliveries.
func NewCellLogger(w io.Writer, format string) (func(obs.CellTiming), error) {
	var line func(obs.CellTiming) []byte
	switch format {
	case "", "text":
		line = func(e obs.CellTiming) []byte { return []byte(FormatCellEvent(e)) }
	case "json":
		line = func(e obs.CellTiming) []byte {
			// A record of strings and numbers always marshals.
			b, _ := json.Marshal(e)
			return b
		}
	default:
		return nil, fmt.Errorf("report: unknown log format %q (want text or json)", format)
	}
	var mu sync.Mutex
	return func(e obs.CellTiming) {
		b := append(line(e), '\n')
		mu.Lock()
		defer mu.Unlock()
		// A progress line has no caller to report a write error to.
		_, _ = w.Write(b)
	}, nil
}
