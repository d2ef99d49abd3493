// Chaos tier: crash/restart resume fidelity, overload shedding, graceful
// drain, and slow-subscriber isolation for the serving layer. Everything
// here runs against the synthetic compute stub, so the tier is fast enough
// for -race on every CI run.
package serve

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpchurn/internal/core"
)

const crashGrid = `{"scenarios":["BASELINE"],"sizes":[100,200,300],"tenant":"alice","origins":5}`

// TestKillAndRestartResumeFidelity kills the server mid-grid (Close is the
// in-process stand-in for SIGKILL: nothing is drained, only what the
// journal already holds survives) and restarts on the same journal: the
// finished cells must be recovered, only the missing ones recomputed, and
// the final CSV byte-identical to an uninterrupted run.
func TestKillAndRestartResumeFidelity(t *testing.T) {
	dir := t.TempDir()

	// Reference: an uninterrupted run on its own journal.
	refSrv, refHS := newTestServer(t, Config{Workers: 1, Journal: filepath.Join(dir, "ref.journal")})
	installStub(refSrv, false)
	_, ref, _ := submit(t, refHS.URL, crashGrid)
	if waitJob(t, refHS.URL, ref.ID).State != JobDone {
		t.Fatal("reference run failed")
	}
	refCSV := fetchCSV(t, refHS.URL, ref.ID)

	// Crash run: one worker serializes the cells; let exactly two finish,
	// then kill the server while the third is in flight.
	journal := filepath.Join(dir, "crash.journal")
	srv1, hs1 := newTestServer(t, Config{Workers: 1, Journal: journal})
	st1 := installStub(srv1, true)
	_, v1, _ := submit(t, hs1.URL, crashGrid)
	st1.release(2)
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, hs1.URL, v1.ID).Counts[cellDone] != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("first two cells never finished: %+v", getJob(t, hs1.URL, v1.ID))
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Close() // crash: third cell dies in flight, never journaled

	recs, _, err := core.LoadJournal(journal)
	if err != nil {
		t.Fatalf("LoadJournal after crash: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records after crash, want 2", len(recs))
	}

	// Restart on the same journal; resubmit the same grid.
	srv2, hs2 := newTestServer(t, Config{Workers: 1, Journal: journal})
	st2 := installStub(srv2, false)
	if srv2.Recovered() != 2 {
		t.Fatalf("Recovered() = %d, want 2", srv2.Recovered())
	}
	if got := srv2.Metrics().Core.JournalLoads.Value(); got != 2 {
		t.Fatalf("journal_loads = %d, want 2", got)
	}
	_, v2, _ := submit(t, hs2.URL, crashGrid)
	final := waitJob(t, hs2.URL, v2.ID)
	if final.State != JobDone {
		t.Fatalf("restarted run state = %s (err=%q)", final.State, final.Err)
	}

	// Only the missing cell was recomputed; the rest came from the journal.
	if st2.total() != 1 {
		t.Fatalf("restart recomputed %d cells, want 1", st2.total())
	}
	resumed := 0
	for _, c := range final.Cells {
		switch c.Detail {
		case "resumed":
			resumed++
		case "computed":
		default:
			t.Fatalf("cell %s/%d detail = %q, want resumed or computed", c.Scenario, c.N, c.Detail)
		}
	}
	if resumed != 2 {
		t.Fatalf("resumed cells = %d, want 2", resumed)
	}
	if stats := srv2.Scheduler().CacheStats(); stats.Resumed != 2 {
		t.Fatalf("CacheStats.Resumed = %d, want 2", stats.Resumed)
	}

	// The recovery guarantee: byte-identical output.
	if got := fetchCSV(t, hs2.URL, v2.ID); got != refCSV {
		t.Fatalf("post-crash CSV differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, refCSV)
	}
}

// TestJournalLockRefusesSecondServer: two daemons must not share one
// journal file — the second New fails fast with the typed lock error.
func TestJournalLockRefusesSecondServer(t *testing.T) {
	if !core.JournalLocksSupported() {
		t.Skip("no advisory file locks on this platform")
	}
	journal := filepath.Join(t.TempDir(), "cells.journal")
	srv1, err := New(Config{Workers: 1, Journal: journal})
	if err != nil {
		t.Fatalf("first New: %v", err)
	}
	defer srv1.Close()
	if _, err := New(Config{Workers: 1, Journal: journal}); err == nil {
		t.Fatal("second server on the same journal was allowed")
	} else if !strings.Contains(err.Error(), "already locked") {
		t.Fatalf("second New error = %v, want journal lock refusal", err)
	}
}

// TestOverloadShedding fills the admission queue and checks the overflow
// submission is shed with 429 + Retry-After (never queued), the shed
// counter moves, and admission recovers once the queue drains.
func TestOverloadShedding(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	st := installStub(srv, true)

	status, v1, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100]}`)
	if status != http.StatusAccepted {
		t.Fatalf("first submission status = %d, want 202", status)
	}

	resp, err := http.Post(hs.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenarios":["BASELINE"],"sizes":[200]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want \"5\"", got)
	}

	metrics := fetchText(t, hs.URL+"/metrics")
	if !strings.Contains(metrics, "bgpchurn_serve_jobs_shed_total 1") {
		t.Fatalf("/metrics missing shed counter:\n%s", grepLines(metrics, "serve_jobs"))
	}

	// Queue drains -> admission recovers.
	st.releaseAll()
	if waitJob(t, hs.URL, v1.ID).State != JobDone {
		t.Fatal("first job failed")
	}
	status, _, _ = submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[200]}`)
	if status != http.StatusAccepted {
		t.Fatalf("post-drain submission status = %d, want 202", status)
	}
}

// TestDrainCheckpointsInflight drains a server with one cell in flight and
// two pending: the pending cells are shed, the in-flight cell runs to
// completion and lands in the journal, and a restarted server recovers it.
func TestDrainCheckpointsInflight(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "drain.journal")
	srv, hs := newTestServer(t, Config{Workers: 1, Journal: journal})
	st := installStub(srv, true)

	_, v, _ := submit(t, hs.URL, crashGrid)
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, hs.URL, v.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		_ = srv.Drain(nil)
	}()

	// While draining: not ready, and submissions bounce with 503.
	waitStatus(t, hs.URL+"/readyz", http.StatusServiceUnavailable)
	status, _, body := submit(t, hs.URL, `{"scenarios":["TREE"],"sizes":[100]}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status = %d, want 503 (%s)", status, body)
	}
	select {
	case <-drainDone:
		t.Fatal("drain finished with a cell still in flight")
	default:
	}

	// Let the in-flight cell finish; the drain must now complete.
	st.release(1)
	select {
	case <-drainDone:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after the in-flight cell finished")
	}

	final := getJob(t, hs.URL, v.ID)
	if final.State != JobCancelled {
		t.Fatalf("drained job state = %s, want cancelled", final.State)
	}
	if final.Counts[cellDone] != 1 || final.Counts[cellCancelled] != 2 {
		t.Fatalf("drained job counts = %v, want 1 done + 2 cancelled", final.Counts)
	}

	// The finished cell survived; a restart recovers exactly it.
	srv2, err := New(Config{Workers: 1, Journal: journal})
	if err != nil {
		t.Fatalf("restart after drain: %v", err)
	}
	defer srv2.Close()
	if srv2.Recovered() != 1 {
		t.Fatalf("Recovered() after drain = %d, want 1", srv2.Recovered())
	}
}

// TestDrainDeadlineHardCancels: when the drain grace expires with a cell
// still wedged, the cell is hard-cancelled and never journaled.
func TestDrainDeadlineHardCancels(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wedge.journal")
	srv, hs := newTestServer(t, Config{Workers: 1, Journal: journal})
	installStub(srv, true) // gate never released: the cell is wedged

	_, v, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100]}`)
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, hs.URL, v.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Drain(dctx) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain wedged past its deadline")
	}

	final := getJob(t, hs.URL, v.ID)
	if final.State != JobCancelled {
		t.Fatalf("wedged job state = %s, want cancelled", final.State)
	}
	recs, _, err := core.LoadJournal(journal)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("hard-cancelled cell was journaled: %d records", len(recs))
	}
}

// TestSlowSSESubscriberDoesNotBlock opens a stream and never reads it while
// a job runs: the broker drops events for the laggard instead of blocking,
// so the job still completes promptly.
func TestSlowSSESubscriberDoesNotBlock(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	st := installStub(srv, true)

	_, v, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100,200]}`)

	// A subscriber that connects and then never reads a byte.
	resp, err := http.Get(hs.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	st.releaseAll()
	if final := waitJob(t, hs.URL, v.ID); final.State != JobDone {
		t.Fatalf("job state = %s with a slow subscriber attached", final.State)
	}

	// A post-completion stream replays the terminal job event.
	resp2, err := http.Get(hs.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	snap, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(snap), "event: job") || !strings.Contains(string(snap), `"state":"done"`) {
		t.Fatalf("terminal stream snapshot missing job event:\n%s", snap)
	}
}

// TestStreamOpenedAsJobFinishes builds the interleaving in which a stream
// sees its job still running while the job finishes and closes its broker
// before the stream subscribes. The closed broker replays what it retained,
// the terminal job event among it, so the stream still answers 200 with
// exactly one job event, not 503.
func TestStreamOpenedAsJobFinishes(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1})
	st := installStub(srv, true)
	defer st.releaseAll()

	_, v, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100]}`)
	j := srv.lookup(v.ID)
	srv.publishFinished(j) // the job event and Close, while the state reads unfinished
	srv.mu.Lock()
	state := j.state
	srv.mu.Unlock()
	if state != JobQueued && state != JobRunning {
		t.Fatalf("job state %s: the interleaving needs an unfinished job", state)
	}

	resp, err := http.Get(hs.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if n := strings.Count(string(body), "event: job\n"); n != 1 {
		t.Fatalf("stream carries %d job events, want 1:\n%s", n, body)
	}
}

// --- small helpers ---

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(raw)
}

// grepLines filters text to the lines mentioning needle, for terse failures.
func grepLines(text, needle string) string {
	var b strings.Builder
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if strings.Contains(sc.Text(), needle) {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// waitStatus polls url until it answers with want.
func waitStatus(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never reached status %d", url, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
