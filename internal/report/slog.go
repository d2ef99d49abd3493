package report

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
)

// Cell logging has two formats. "text" writes the FormatCellEvent lines
// directly, so terminal output (and the golden tests over it) is exactly
// those lines; "json" runs log/slog's standard JSON handler for machine
// consumption: one structured record per event with scenario, n, seed,
// state, elapsed and err attributes, one object per line.

// Structured attribute keys for cell events.
const (
	cellKeyScenario = "scenario"
	cellKeyN        = "n"
	cellKeySeed     = "seed"
	cellKeyState    = "state"
	cellKeyAttempt  = "attempt"
	cellKeyElapsed  = "elapsed"
	cellKeyErr      = "err"
)

// NewCellLogger returns a callback that logs one record per cell event to
// w in the given format: "text" (or "") for the aligned FormatCellEvent
// lines, "json" for slog JSON, where failed cells log at LevelError,
// retried ones at LevelWarn and everything else at LevelInfo. The callback
// is safe for concurrent use, though schedulers already serialize
// SubscribeCells deliveries.
func NewCellLogger(w io.Writer, format string) (func(CellEvent), error) {
	switch format {
	case "", "text":
		var mu sync.Mutex
		return func(e CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			// A progress line has no caller to report a write error to;
			// slog's handlers drop theirs the same way.
			_, _ = fmt.Fprintln(w, FormatCellEvent(e))
		}, nil
	case "json":
		logger := slog.New(slog.NewJSONHandler(w, nil))
		return func(e CellEvent) {
			level := slog.LevelInfo
			switch e.State {
			case "failed", "quarantined":
				level = slog.LevelError
			case "retried":
				level = slog.LevelWarn
			}
			attrs := []slog.Attr{
				slog.String(cellKeyScenario, e.Scenario),
				slog.Int(cellKeyN, e.N),
				slog.Uint64(cellKeySeed, e.Seed),
				slog.String(cellKeyState, e.State),
				slog.Duration(cellKeyElapsed, e.Elapsed),
			}
			if e.Attempt > 0 {
				attrs = append(attrs, slog.Int(cellKeyAttempt, e.Attempt))
			}
			if e.Err != nil {
				attrs = append(attrs, slog.String(cellKeyErr, e.Err.Error()))
			}
			logger.LogAttrs(context.Background(), level, "cell", attrs...)
		}, nil
	}
	return nil, fmt.Errorf("report: unknown log format %q (want text or json)", format)
}
