package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the daemon's output while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(context.Background(), []string{"-nope"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("bad flag: exit = %d, want %d", code, exitUsage)
	}
	if code := run(context.Background(), []string{"positional"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("positional arg: exit = %d, want %d", code, exitUsage)
	}
	if !strings.Contains(errBuf.String(), "unexpected arguments") {
		t.Fatalf("stderr = %q, want unexpected-arguments message", errBuf.String())
	}
}

// TestRunRejectsNegativeFlags: a negative count or duration exits 1 with
// the reason before the journal is created or a port is bound.
func TestRunRejectsNegativeFlags(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.journal")
	for _, c := range []struct{ flag, value string }{
		{"-workers", "-1"}, {"-queue", "-2"}, {"-max-cells", "-3"}, {"-max-n", "-4"},
		{"-retries", "-1"}, {"-cell-timeout", "-1s"}, {"-drain-timeout", "-1s"},
	} {
		var out, errBuf bytes.Buffer
		code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-journal", journal, c.flag, c.value}, &out, &errBuf)
		if code != exitError {
			t.Fatalf("%s %s: exit = %d, want %d", c.flag, c.value, code, exitError)
		}
		if want := c.flag + " must be non-negative, got " + c.value; !strings.Contains(errBuf.String(), want) {
			t.Fatalf("%s %s: stderr = %q, want %q", c.flag, c.value, errBuf.String(), want)
		}
		if out.Len() != 0 {
			t.Fatalf("%s %s: the daemon started: %q", c.flag, c.value, out.String())
		}
		if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s %s: journal created (stat: %v)", c.flag, c.value, err)
		}
	}
}

func TestRunBadListenAddr(t *testing.T) {
	var out, errBuf bytes.Buffer
	journal := filepath.Join(t.TempDir(), "j.journal")
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bad", "-journal", journal},
		&out, &errBuf); code != exitError {
		t.Fatalf("bad addr: exit = %d, want %d", code, exitError)
	}
}

// TestRunServeAndDrain boots the daemon on a free port, checks it serves,
// then cancels the context (the first-signal path) and requires a graceful
// drain with exit 0.
func TestRunServeAndDrain(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "churnd.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out, errBuf syncBuffer
	codes := make(chan int, 1)
	go func() {
		codes <- run(ctx, []string{"-addr", "127.0.0.1:0", "-journal", journal,
			"-drain-timeout", "5s"}, &out, &errBuf)
	}()

	addrRE := regexp.MustCompile(`serving on http://([^\s]+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; out=%q err=%q", out.String(), errBuf.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !strings.Contains(out.String(), "recovered 0 cells") {
		t.Fatalf("missing recovery log line: %q", out.String())
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	cancel()
	select {
	case code := <-codes:
		if code != exitOK {
			t.Fatalf("drained exit = %d, want %d (err=%q)", code, exitOK, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited after context cancellation")
	}
	if !strings.Contains(out.String(), "drained in") {
		t.Fatalf("missing drain log line: %q", out.String())
	}
}
