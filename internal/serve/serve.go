// Package serve is churnd's serving layer: a long-lived, multi-tenant sweep
// server wrapping one shared core.Scheduler behind an HTTP API.
//
// Robustness is the design center (DESIGN.md, "Serving layer"):
//
//   - Admission control: the queue of admitted-but-unfinished jobs is
//     bounded; a submission beyond the bound is shed immediately with
//     429 + Retry-After instead of queueing unboundedly. Malformed or
//     out-of-bounds submissions are rejected with 400 before they can
//     consume any compute.
//   - Fairness: cells are dispatched by weighted round-robin over tenants,
//     and each job's concurrency budget is carved from the global worker
//     pool, so one tenant's 10k-cell grid cannot starve another's
//     two-cell probe.
//   - Dedup: every job runs through the shared scheduler's singleflight
//     result cache and checkpoint journal, so overlapping grids from
//     concurrent clients compute each distinct cell exactly once.
//   - Drain: Drain stops admitting, lets every in-flight cell run to
//     completion (each is checkpointed to the journal as it lands), sheds
//     undispatched cells, then closes the journal — a SIGTERM never loses
//     finished work. A drain deadline hard-cancels stragglers.
//   - Recovery: New opens the journal via Scheduler.AttachJournal, so a
//     daemon killed mid-grid (even SIGKILL) restarts with every checkpointed
//     cell served from cache and only missing cells recomputed,
//     byte-identical.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
)

// Defaults for Config's zero values, and the settings no Config changes.
const (
	DefaultQueueCap    = 64
	DefaultMaxJobCells = 64
	DefaultMaxN        = 100_000
	DefaultMaxWeight   = 16
	// retryAfter is the hint sent with 429 responses.
	retryAfter = 5 * time.Second
	// minN keeps submissions above the smallest size the topology
	// generator supports meaningfully (the clique plus a few of each tier).
	minN = 50
	// finishedRetentionBytes bounds what the finished jobs that stay
	// queryable keep alive, by Job.retainedBytesLocked. The oldest are
	// forgotten first and the newest is always kept, so a long-lived
	// daemon's job table cannot grow without bound however large its jobs
	// are. A six-cell job is estimated at ≈ 7 kB, so 20 MiB holds about
	// 2 900 of them, and still 1 078 at the ≈ 19 kB of RSS such a job was
	// measured to cost.
	finishedRetentionBytes = 20 << 20
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrently computing cells across all jobs
	// (0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds admitted-but-unfinished jobs (0 = DefaultQueueCap);
	// submissions beyond it are shed with 429.
	QueueCap int
	// MaxJobCells bounds scenarios x sizes per job (0 = DefaultMaxJobCells).
	MaxJobCells int
	// MaxN bounds admissible network sizes from above (0 = DefaultMaxN);
	// minN bounds them from below.
	MaxN int
	// CellTimeout, when > 0, is the per-cell deadline applied to every job
	// (a job may only tighten it, never exceed it).
	CellTimeout time.Duration
	// Retries is the scheduler's transient-fault retry budget per cell.
	Retries int
	// Journal is the shared checkpoint journal path; "" disables
	// checkpointing and restart recovery.
	Journal string
}

// Server is the serving layer: one shared scheduler, a bounded fair
// admission queue, and the HTTP API. Create with New, expose Handler, stop
// with Drain (graceful) or Close (immediate).
type Server struct {
	cfg       Config
	sched     *core.Scheduler
	metrics   *obs.Metrics
	recovered int
	mux       *http.ServeMux
	progress  *obs.ProgressBroker // global /progress feed
	unsub     func()              // stops the /progress mirror

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job
	tenants   map[string]*tenant
	order     []string // tenant names in WRR order (sorted)
	cursor    int
	nextID    uint64
	active    int // admitted and not yet finished (the admission queue depth)
	inflight  int // cells currently computing, at most cfg.Workers
	draining  bool
	closed    bool
	drained   chan struct{} // closed once draining && inflight == 0
	drainOnce sync.Once
	finished  []retainedJob // finished jobs, oldest first, for retention
	// retained is the sum of finished[i].bytes.
	retained int
}

// retainedJob is one finished job in the retention window.
type retainedJob struct {
	id    string
	bytes int
}

// New builds the server: it opens (and flocks) the journal, replaying it into
// the shared scheduler's cache, and starts the dispatcher. The returned
// server is ready to serve; stop it with Drain or Close.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxJobCells <= 0 {
		cfg.MaxJobCells = DefaultMaxJobCells
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = DefaultMaxN
	}
	m := obs.New()
	s := &Server{
		cfg:      cfg,
		sched:    core.NewScheduler(1),
		metrics:  m,
		progress: obs.NewProgressBroker(),
		jobs:     map[string]*Job{},
		tenants:  map[string]*tenant{},
		drained:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.sched.SetObs(m)
	s.sched.SetRetryPolicy(cfg.Retries, 0)

	if cfg.Journal != "" {
		seeded, _, err := s.sched.AttachJournal(cfg.Journal, true)
		if err != nil {
			return nil, err
		}
		s.recovered = seeded
	}

	// The scheduler's shared feed (the one cmd/experiments serves) drives the
	// global /progress stream; each job learns its own cells' outcomes from
	// the Scheduler.Cell calls that compute them.
	s.unsub = s.sched.PublishProgress(s.progress)

	s.buildMux()
	go s.dispatch()
	return s, nil
}

// Scheduler returns the shared scheduler, for tests that stub the compute
// seams or inspect cache stats directly.
func (s *Server) Scheduler() *core.Scheduler { return s.sched }

// Metrics returns the server's metrics hub.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Recovered returns how many journal records were replayed at startup.
func (s *Server) Recovered() int { return s.recovered }

// Handler returns the server's HTTP API (jobs, health, metrics, pprof,
// progress), ready to mount on any http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Progress returns the global progress broker feeding /progress.
func (s *Server) Progress() *obs.ProgressBroker { return s.progress }

// Drain performs a graceful shutdown: stop admitting (submissions get 503,
// /readyz flips), dispatch nothing new, shed every undispatched cell, and
// let in-flight cells run to completion — each is journaled as it lands, so
// nothing finished is lost. When ctx expires first, remaining in-flight
// cells are hard-cancelled (they were never journaled, so a restart simply
// recomputes them). The journal is closed once quiesced. Idempotent; safe
// to race with Close.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		<-s.drained
		return nil
	}
	s.draining = true
	var finished []*Job
	for _, j := range s.jobs {
		if j.state == JobQueued || j.state == JobRunning {
			s.shedPendingLocked(j, "shed by drain")
			if j.remaining == 0 {
				s.finishJobLocked(j)
				finished = append(finished, j)
			}
		}
	}
	if s.inflight == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range finished {
		s.publishFinished(j)
	}

	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.drained:
	case <-ctx.Done():
		// Grace exceeded: abort the stragglers. Their singleflight entries
		// are dropped, never cached or journaled.
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.state == JobRunning {
				j.cancel(fmt.Errorf("serve: drain deadline exceeded"))
			}
		}
		s.mu.Unlock()
		<-s.drained
	}
	s.closeJournal()
	s.metrics.Serve.DrainSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Close stops the server immediately: every job is cancelled, nothing is
// waited for beyond in-flight cell goroutines noticing their contexts, and
// the journal is closed. Finished cells already journaled survive — Close
// is the in-process stand-in for a crash in tests, minus the torn tail.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.state == JobQueued || j.state == JobRunning {
			j.cancel(fmt.Errorf("serve: server closed"))
			s.shedPendingLocked(j, "server closed")
		}
	}
	s.drainOnce.Do(func() { close(s.drained) })
	s.cond.Broadcast()
	s.mu.Unlock()
	s.unsub()
	s.progress.Close()
	s.closeJournal()
	return nil
}

// closeJournal closes the scheduler's checkpoint journal, if any.
func (s *Server) closeJournal() {
	if j := s.sched.Journal(); j != nil {
		j.Close()
	}
}
