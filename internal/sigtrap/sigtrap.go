// Package sigtrap is the one SIGINT/SIGTERM handler the command binaries
// share: the first signal asks for a graceful stop, the second forces one.
package sigtrap

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// exitForced is the exit code of a forced stop (128 + SIGINT).
const exitForced = 130

// exitNow is the second-signal hard-exit seam; tests may override it.
var exitNow = os.Exit

// Context returns a context that the first SIGINT/SIGTERM cancels, so the
// caller can drain and checkpoint. A second signal prints "<name>: second
// signal, forced exit" to stderr and exits 130 at once: a wedged drain
// must never hold the process hostage. stop cancels the context and returns
// once the signal registration is released.
func Context(name string, stderr io.Writer) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done, exited := make(chan struct{}), make(chan struct{})
	// next blocks until a signal arrives (true) or stop is called (false).
	next := func() bool {
		select {
		case <-sig:
			return true
		case <-done:
			return false
		}
	}
	go func() {
		defer close(exited)
		defer signal.Stop(sig)
		if !next() {
			return
		}
		cancel()
		if !next() {
			return
		}
		fmt.Fprintf(stderr, "%s: second signal, forced exit\n", name)
		exitNow(exitForced)
	}()
	return ctx, func() {
		close(done)
		<-exited
		cancel()
	}
}
