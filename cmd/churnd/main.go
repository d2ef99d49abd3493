// Command churnd is the long-lived multi-tenant sweep server: one shared
// experiment scheduler (singleflight cell cache + crash-safe journal)
// behind an HTTP API.
//
//	churnd -addr :8100 -journal results/churnd.journal
//
// API (see EXPERIMENTS.md for curl examples):
//
//	POST   /jobs                submit a grid {scenarios, sizes, seed, ...}
//	GET    /jobs                list jobs
//	GET    /jobs/{id}           job status with per-cell detail
//	GET    /jobs/{id}/stream    per-job SSE (cell events + terminal job event)
//	GET    /jobs/{id}/result.csv  finished results, byte-stable across restarts
//	DELETE /jobs/{id}           cancel a job (other tenants are isolated)
//	GET    /healthz, /readyz    liveness / drain-aware readiness
//	GET    /stats, /metrics, /progress, /debug/pprof/, /debug/vars
//
// The first SIGTERM/SIGINT drains gracefully: admission stops, in-flight
// cells finish and are checkpointed, the journal closes, then the process
// exits 0. A second signal forces immediate exit with code 130. On restart
// the journal is replayed, so resubmitted grids recompute only the cells
// that never finished.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"bgpchurn/internal/serve"
	"bgpchurn/internal/sigtrap"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() {
	ctx, stop := sigtrap.Context("churnd", os.Stderr)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main minus process plumbing: ctx cancellation plays the role of
// the first termination signal. Returns the exit code.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("churnd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8100", "listen address (host:port; :0 picks a free port)")
		workers      = fs.Int("workers", 0, "global worker pool: concurrent cells across all jobs (0 = GOMAXPROCS)")
		queueCap     = fs.Int("queue", serve.DefaultQueueCap, "admission bound: jobs admitted but unfinished before submissions shed with 429")
		maxCells     = fs.Int("max-cells", serve.DefaultMaxJobCells, "largest scenarios x sizes grid one job may submit")
		maxN         = fs.Int("max-n", serve.DefaultMaxN, "largest admissible network size")
		cellTimeout  = fs.Duration("cell-timeout", 0, "per-cell deadline (0 = none); jobs may tighten but not exceed it")
		retries      = fs.Int("retries", 1, "per-cell retry budget after transient faults before quarantine")
		journalPath  = fs.String("journal", "results/churnd.journal", "shared checkpoint journal ('' disables crash recovery)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget before in-flight cells are hard-cancelled")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "churnd: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}
	// A negative count or duration is refused before the journal opens or
	// the listener binds: serve.New would read it as its default or as zero.
	for _, c := range []struct {
		flag string
		neg  bool
	}{
		{"workers", *workers < 0}, {"queue", *queueCap < 0}, {"max-cells", *maxCells < 0}, {"max-n", *maxN < 0},
		{"retries", *retries < 0}, {"cell-timeout", *cellTimeout < 0}, {"drain-timeout", *drainTimeout < 0},
	} {
		if c.neg {
			fmt.Fprintf(stderr, "churnd: -%s must be non-negative, got %s\n", c.flag, fs.Lookup(c.flag).Value)
			return exitError
		}
	}

	srv, err := serve.New(serve.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		MaxJobCells: *maxCells,
		MaxN:        *maxN,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
		Journal:     *journalPath,
	})
	if err != nil {
		fmt.Fprintf(stderr, "churnd: %v\n", err)
		return exitError
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "churnd: %v\n", err)
		return exitError
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()

	if *journalPath != "" {
		fmt.Fprintf(stdout, "churnd: recovered %d cells from journal %s\n", srv.Recovered(), *journalPath)
	}
	fmt.Fprintf(stdout, "churnd: serving on http://%s\n", ln.Addr())

	// First signal: drain. While the drain runs, a second signal forces
	// immediate exit (sigtrap).
	<-ctx.Done()
	fmt.Fprintf(stdout, "churnd: draining (up to %s; second signal forces exit)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	start := time.Now()
	_ = srv.Drain(dctx)
	fmt.Fprintf(stdout, "churnd: drained in %s\n", time.Since(start).Round(time.Millisecond))

	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	_ = hs.Close()
	srv.Close()
	return exitOK
}
