package serve

import (
	"context"
	"errors"
	"runtime"
	"time"

	"bgpchurn/internal/core"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// dispatch is the server's scheduling loop: it repeatedly picks the next
// cell by weighted round-robin over tenants (respecting per-job budgets and
// the global worker pool) and hands it to a cell goroutine. It parks while
// nothing is runnable and exits when the server closes.
func (s *Server) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var c *cellRun
		for {
			if s.closed {
				return
			}
			if !s.draining && s.inflight < s.cfg.Workers {
				if c = s.nextCellLocked(); c != nil {
					break
				}
			}
			s.cond.Wait()
		}
		j := c.job
		s.inflight++
		j.inflight++
		j.next++
		if j.state == JobQueued {
			j.state = JobRunning
		}
		c.state = cellRunning
		s.metrics.Serve.CellsDispatched.Inc()
		go s.runCell(c)
	}
}

// nextCellLocked implements weighted round-robin at cell granularity: the
// tenant at the cursor dispatches up to `weight` consecutive cells (its
// turn), then the cursor advances to the next tenant with runnable work.
// A tenant with nothing runnable forfeits the rest of its turn. Caller
// holds s.mu.
func (s *Server) nextCellLocked() *cellRun {
	n := len(s.order)
	for i := 0; i < n; i++ {
		idx := (s.cursor + i) % n
		t := s.tenants[s.order[idx]]
		c := t.nextRunnable()
		if c == nil {
			if i == 0 {
				t.credit = t.weight // forfeited turn: reset for next visit
			}
			continue
		}
		if i > 0 {
			// The turn passed to a new tenant: start it fresh.
			s.cursor = idx
			t.credit = t.weight
		}
		t.credit--
		if t.credit <= 0 {
			t.credit = t.weight
			s.cursor = (idx + 1) % n
		}
		return c
	}
	return nil
}

// runCell computes one cell through the shared scheduler. Runs on its own
// goroutine holding one global worker slot; everything it touches on the
// job is mutated under the server mutex.
func (s *Server) runCell(c *cellRun) {
	j := c.job
	j.broker.Publish("cell", CellView{Scenario: c.scenario.Name, N: c.n, State: cellRunning})
	cs := s.sched.Cell(j.ctx, c.scenario, c.n, j.seed, j.event)

	s.mu.Lock()
	c.elapsed = cs.Elapsed
	// Provenance is what the scheduler did for this call: computed, cached,
	// resumed, failed, quarantined or cancelled.
	c.detail = cs.State.String()
	if cs.State == core.CellDone {
		c.detail = "computed"
	}
	err := cs.Err
	// A cancelled job wins over a late result: the shared computation may
	// finish before it observes the job's context (the result stays cached
	// for every other job), but the client was already told "cancelled".
	switch {
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		c.state = cellCancelled
		if cause := context.Cause(j.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			c.errMsg = cause.Error()
		} else if err != nil {
			c.errMsg = err.Error()
		}
	case err == nil:
		c.state = cellDone
		c.res = cs.Result
	default:
		c.state = cellFailed
		c.errMsg = err.Error()
	}
	j.inflight--
	j.remaining--
	s.inflight--
	finished := j.remaining == 0
	if finished {
		s.finishJobLocked(j)
	}
	if s.draining && s.inflight == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.cond.Broadcast()
	view := CellView{
		Scenario:  c.scenario.Name,
		N:         c.n,
		State:     c.state,
		Detail:    c.detail,
		ElapsedMS: float64(c.elapsed) / float64(time.Millisecond),
		Err:       c.errMsg,
	}
	s.mu.Unlock()

	j.broker.Publish("cell", view)
	if finished {
		s.publishFinished(j)
	}
}

// shedPendingLocked cancels every undispatched cell of j (drain, client
// cancel, server close). In-flight cells are untouched. Caller holds s.mu.
func (s *Server) shedPendingLocked(j *Job, reason string) {
	for _, c := range j.cells[j.next:] {
		c.state = cellCancelled
		c.errMsg = reason
		j.remaining--
	}
	j.next = len(j.cells)
}

// finishJobLocked moves a job with no remaining cells into its terminal
// state and retires it from the admission queue and fairness structures.
// Caller holds s.mu; terminal-event publication happens outside the lock
// via publishFinished.
func (s *Server) finishJobLocked(j *Job) {
	var failed, cancelled int
	for _, c := range j.cells {
		switch c.state {
		case cellFailed:
			failed++
			if j.errMsg == "" {
				j.errMsg = c.errMsg
			}
		case cellCancelled:
			cancelled++
			if j.errMsg == "" {
				j.errMsg = c.errMsg
			}
		}
	}
	switch {
	case failed > 0:
		j.state = JobFailed
		s.metrics.Serve.JobsFailed.Inc()
	case cancelled > 0:
		j.state = JobCancelled
		s.metrics.Serve.JobsCancelled.Inc()
	default:
		j.state = JobDone
		s.metrics.Serve.JobsCompleted.Inc()
	}
	j.finished = time.Now()
	j.cancel(nil) // release the deadline timer, if any

	s.active--
	s.metrics.Serve.QueueDepth.Add(-1)

	// Retire from the tenant's FIFO; drop the tenant entirely when idle so
	// the WRR ring only visits tenants with work.
	if t := s.tenants[j.tenant]; t != nil {
		for i, tj := range t.jobs {
			if tj == j {
				t.jobs = append(t.jobs[:i:i], t.jobs[i+1:]...)
				break
			}
		}
		if len(t.jobs) == 0 {
			delete(s.tenants, j.tenant)
			for i, name := range s.order {
				if name == j.tenant {
					s.order = append(s.order[:i:i], s.order[i+1:]...)
					if s.cursor > i {
						s.cursor--
					}
					break
				}
			}
			if len(s.order) == 0 {
				s.cursor = 0
			} else {
				s.cursor %= len(s.order)
			}
		} else {
			t.weight = 1
			for _, tj := range t.jobs {
				if tj.weight > t.weight {
					t.weight = tj.weight
				}
			}
		}
	}

	s.retainLocked(j.id, j.retainedBytesLocked())
}

// retainLocked adds a finished job of the given retained size to the
// finished-job table and forgets the oldest finished jobs until the table is
// within finishedRetentionBytes again — never the job just added, however
// large. Caller holds s.mu.
func (s *Server) retainLocked(id string, bytes int) {
	s.finished = append(s.finished, retainedJob{id, bytes})
	s.retained += bytes
	for s.retained > finishedRetentionBytes && len(s.finished) > 1 {
		delete(s.jobs, s.finished[0].id)
		s.retained -= s.finished[0].bytes
		s.finished = s.finished[1:]
	}
}

// publishFinished emits the terminal SSE event and closes the job's
// stream. Runs without the server mutex.
func (s *Server) publishFinished(j *Job) {
	s.mu.Lock()
	view := j.viewLocked(true)
	s.mu.Unlock()
	j.broker.Publish("job", view)
	j.broker.Close()
}
