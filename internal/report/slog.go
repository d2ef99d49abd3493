package report

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
)

// Cell logging runs on log/slog: every progress event is one structured
// record with scenario, n, seed, state, elapsed and err attributes, and
// the output format is a handler choice. The "text" handler reproduces the
// legacy FormatCellEvent lines byte-for-byte, so terminal output (and the
// golden tests over it) is unchanged; "json" swaps in slog's standard JSON
// handler for machine consumption (one object per line).

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
// w in the given format: "text" (or "") for the legacy aligned lines,
// "json" for slog JSON. Failed cells log at LevelError, everything else at
// LevelInfo. The callback is safe for concurrent use, though schedulers
// already serialize SubscribeCells deliveries.
func NewCellLogger(w io.Writer, format string) (func(CellEvent), error) {
	var h slog.Handler
	switch format {
	case "", "text":
		h = &cellTextHandler{w: w}
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("report: unknown log format %q (want text or json)", format)
	}
	logger := slog.New(h)
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

// cellTextHandler renders cell records as the legacy progress lines. It is
// not a general slog handler — it knows the cell attribute schema and
// ignores groups — which is exactly enough for the experiment binaries.
type cellTextHandler struct {
	mu sync.Mutex
	w  io.Writer
}

func (h *cellTextHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *cellTextHandler) Handle(_ context.Context, r slog.Record) error {
	var e CellEvent
	var errMsg string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case cellKeyScenario:
			e.Scenario = a.Value.String()
		case cellKeyN:
			e.N = int(a.Value.Int64())
		case cellKeySeed:
			e.Seed = a.Value.Uint64()
		case cellKeyState:
			e.State = a.Value.String()
		case cellKeyAttempt:
			e.Attempt = int(a.Value.Int64())
		case cellKeyElapsed:
			e.Elapsed = a.Value.Duration()
		case cellKeyErr:
			errMsg = a.Value.String()
		}
		return true
	})
	if errMsg != "" {
		e.Err = fmt.Errorf("%s", errMsg)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := fmt.Fprintln(h.w, FormatCellEvent(e))
	return err
}

func (h *cellTextHandler) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h *cellTextHandler) WithGroup(string) slog.Handler { return h }

var _ slog.Handler = (*cellTextHandler)(nil)
