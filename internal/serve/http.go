package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
)

// maxSubmitBytes bounds the POST /jobs body; a grid submission is a small
// JSON document, so anything larger is hostile or broken.
const maxSubmitBytes = 1 << 20

// buildMux wires the full API surface: the jobs API, health endpoints, the
// global progress stream, and the folded-in observability mux (/metrics,
// /debug/vars, /debug/pprof).
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/result.csv", s.handleResultCSV)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /progress", s.progress)
	obs.RegisterDebug(mux, s.metrics)
	s.mux = mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits one job: validate (400), check drain (503), check the
// admission bound (429 + Retry-After), then register the job with the
// fairness structures and wake the dispatcher.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.Serve.JobsRejected.Inc()
		writeError(w, http.StatusBadRequest, "invalid submission: %v", err)
		return
	}
	j, err := s.buildJob(req)
	if err != nil {
		s.metrics.Serve.JobsRejected.Inc()
		writeError(w, http.StatusBadRequest, "invalid submission: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		j.cancel(errors.New("serve: draining"))
		writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit after restart")
		return
	}
	if s.active >= s.cfg.QueueCap {
		s.mu.Unlock()
		j.cancel(errors.New("serve: shed"))
		s.metrics.Serve.JobsShed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests,
			"admission queue full (%d jobs); retry after %s", s.cfg.QueueCap, retryAfter)
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d", s.nextID)
	s.jobs[j.id] = j
	t := s.tenants[j.tenant]
	if t == nil {
		t = &tenant{name: j.tenant, weight: j.weight, credit: j.weight}
		s.tenants[j.tenant] = t
		s.order = sortTenantsInto(s.order, j.tenant)
	} else if j.weight > t.weight {
		t.weight = j.weight
	}
	t.jobs = append(t.jobs, j)
	s.active++
	s.metrics.Serve.JobsAdmitted.Inc()
	s.metrics.Serve.QueueDepth.Add(1)
	s.cond.Broadcast()
	view := j.viewLocked(false)
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, view)
}

// handleList summarizes every known job, newest first.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.viewLocked(false))
	}
	s.mu.Unlock()
	// Deterministic order: by id, which is admission order.
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && views[k].ID < views[k-1].ID; k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	view := j.viewLocked(true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleCancel cancels one job: pending cells are shed immediately,
// in-flight cells are aborted through the job's context. Cancellation is
// scoped to the job — overlapping cells another tenant is computing are
// protected by the scheduler's foreign-cancellation handling.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	if j.state != JobQueued && j.state != JobRunning {
		view := j.viewLocked(false)
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, view)
		return
	}
	j.cancel(errors.New("cancelled by client"))
	s.shedPendingLocked(j, "cancelled by client")
	finished := j.remaining == 0
	if finished {
		s.finishJobLocked(j)
	}
	s.cond.Broadcast()
	view := j.viewLocked(false)
	s.mu.Unlock()
	if finished {
		s.publishFinished(j)
	}
	writeJSON(w, http.StatusOK, view)
}

// handleStream is the per-job SSE feed: "cell" events as cells advance and
// one terminal "job" event. The broker is closed when the job finishes, after
// the job event, so a stream opened later replays that event and ends. Slow
// subscribers lose intermediate events rather than blocking computation —
// the broker publish path never waits.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.broker.ServeHTTP(w, r)
}

// handleResultCSV renders a done job's results as CSV, rows in submission
// order, floats at full round-trip precision — byte-identical across
// restarts for the same submission.
func (s *Server) handleResultCSV(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	state := j.state
	var table *report.Table
	if state == JobDone {
		table = j.resultTableLocked()
	}
	s.mu.Unlock()
	if table == nil {
		writeError(w, http.StatusConflict, "job is %s; results require state %q", state, JobDone)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = table.WriteCSV(w)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := !s.draining && !s.closed
	s.mu.Unlock()
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// handleStats exposes the shared scheduler's cache traffic plus the serving
// queue state — the numbers the dedup and shedding tests assert on.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := s.sched.CacheStats()
	s.mu.Lock()
	view := map[string]any{
		"cache":     stats,
		"active":    s.active,
		"inflight":  s.inflight,
		"queue_cap": s.cfg.QueueCap,
		"workers":   s.cfg.Workers,
		"recovered": s.recovered,
		"draining":  s.draining,
		"tenants":   len(s.tenants),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}
