package sigtrap

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer lets the test read what the watcher goroutine writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSecondSignalForcesExit exercises the double-^C path: the first
// SIGINT cancels the context, the second forces an immediate exit with
// code 130 through the exitNow seam and says so on stderr.
func TestSecondSignalForcesExit(t *testing.T) {
	codes := make(chan int, 1)
	old := exitNow
	exitNow = func(code int) { codes <- code }
	defer func() { exitNow = old }()

	var stderr lockedBuffer
	ctx, stop := Context("prog", &stderr)
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first signal never cancelled the context")
	}
	select {
	case code := <-codes:
		t.Fatalf("first signal forced exit %d", code)
	default:
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case code := <-codes:
		if code != exitForced {
			t.Fatalf("forced exit code = %d, want %d", code, exitForced)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal never forced an exit")
	}
	if got := stderr.String(); !strings.Contains(got, "prog: second signal, forced exit") {
		t.Fatalf("stderr = %q, want the forced-exit line", got)
	}
}

// TestStopCancelsWithoutSignal checks the test-invocation path: stop
// cancels the context and never exits.
func TestStopCancelsWithoutSignal(t *testing.T) {
	old := exitNow
	exitNow = func(code int) { t.Errorf("exit %d without a signal", code) }
	defer func() { exitNow = old }()

	ctx, stop := Context("prog", &lockedBuffer{})
	if ctx.Err() != nil {
		t.Fatal("context cancelled before any signal")
	}
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop did not cancel the context")
	}
}
