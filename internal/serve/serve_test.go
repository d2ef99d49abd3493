package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/report"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// computeStub replaces the scheduler's compute seams with a fast synthetic
// workload: generate counts compute attempts per cell, run blocks on an
// optional token gate (so tests can hold cells in flight) and returns a
// deterministic Result derived from n alone.
type computeStub struct {
	mu    sync.Mutex
	calls map[string]int // "SCENARIO/n" -> compute attempts
	gate  chan struct{}  // nil: never block; else run consumes one token
}

func (st *computeStub) count(sc string, n int) {
	st.mu.Lock()
	st.calls[fmt.Sprintf("%s/%d", sc, n)]++
	st.mu.Unlock()
}

func (st *computeStub) callsFor(sc string, n int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.calls[fmt.Sprintf("%s/%d", sc, n)]
}

func (st *computeStub) total() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	sum := 0
	for _, c := range st.calls {
		sum += c
	}
	return sum
}

// release lets k blocked (or future) run calls proceed.
func (st *computeStub) release(k int) {
	for i := 0; i < k; i++ {
		st.gate <- struct{}{}
	}
}

// releaseAll permanently opens the gate.
func (st *computeStub) releaseAll() { close(st.gate) }

// stubResult is the deterministic synthetic result for one cell; the
// byte-identity assertions compare CSVs built from it.
func stubResult(n, origins int) *core.Result {
	res := &core.Result{N: n, Origins: origins, TotalUpdates: float64(n) * 2.5, PeakRate: float64(n) / 3}
	for i := range res.ByType {
		res.ByType[i].U = float64(n) + float64(i)/7
	}
	return res
}

// installStub swaps the server's compute seams for the synthetic workload.
// gated controls whether run calls block awaiting st.release tokens.
func installStub(srv *Server, gated bool) *computeStub {
	st := &computeStub{calls: map[string]int{}}
	if gated {
		st.gate = make(chan struct{}, 1024)
	}
	srv.Scheduler().SetCompute(
		func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
			st.count(sc.Name, n)
			return &topology.Topology{Nodes: make([]topology.Node, n), Seed: seed}, nil
		},
		func(ctx context.Context, tp *topology.Topology, cfg core.Config) (*core.Result, error) {
			if st.gate != nil {
				select {
				case <-st.gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return stubResult(len(tp.Nodes), cfg.Origins), nil
		})
	return st
}

// newTestServer builds a Server (closed at cleanup) and an httptest front
// end for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// submit POSTs a job body and decodes the response.
func submit(t *testing.T, base, body string) (int, JobView, string) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode job view: %v (%s)", err, raw)
		}
	}
	return resp.StatusCode, v, string(raw)
}

// getJob fetches one job's status view.
func getJob(t *testing.T, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /jobs/%s: status %d: %s", id, resp.StatusCode, raw)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// waitJob polls until the job reaches a terminal state, then returns it.
func waitJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := getJob(t, base, id)
		switch v.State {
		case JobDone, JobFailed, JobCancelled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s: %+v", id, v.State, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchCSV grabs a done job's result CSV.
func fetchCSV(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result.csv")
	if err != nil {
		t.Fatalf("GET result.csv: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result.csv: status %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}

// expectedCSV renders the CSV the stub workload must produce for the grid,
// rows in submission order.
func expectedCSV(t *testing.T, scenarios []string, sizes []int, origins int) string {
	t.Helper()
	tab := report.NewTable("", "scenario", "n", "u_T", "u_M", "u_CP", "u_C", "total_updates", "peak_rate")
	for _, sc := range scenarios {
		for _, n := range sizes {
			r := stubResult(n, origins)
			tab.AddRow(sc, fmt.Sprint(n),
				report.Float(r.U(topology.T), 0), report.Float(r.U(topology.M), 0),
				report.Float(r.U(topology.CP), 0), report.Float(r.U(topology.C), 0),
				report.Float(r.TotalUpdates, 0), report.Float(r.PeakRate, 0))
		}
	}
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return b.String()
}

func TestSubmitValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, MaxJobCells: 4})
	cases := []struct {
		name, body, wantErr string
	}{
		{"truncated JSON", `{"scenarios":`, "invalid submission"},
		{"unknown field", `{"scenarios":["BASELINE"],"sizes":[100],"bogus":1}`, "bogus"},
		{"no scenarios", `{"scenarios":[],"sizes":[100]}`, "scenarios: at least one"},
		{"no sizes", `{"scenarios":["BASELINE"],"sizes":[]}`, "sizes: at least one"},
		{"unknown scenario", `{"scenarios":["NOPE"],"sizes":[100]}`, "unknown scenario"},
		{"duplicate scenario", `{"scenarios":["BASELINE","BASELINE"],"sizes":[100]}`, "duplicate"},
		{"duplicate size", `{"scenarios":["BASELINE"],"sizes":[100,100]}`, "duplicate"},
		{"size too small", `{"scenarios":["BASELINE"],"sizes":[10]}`, "size 10"},
		{"size too large", `{"scenarios":["BASELINE"],"sizes":[100000000]}`, "size 100000000"},
		{"grid too large", `{"scenarios":["BASELINE","TREE","NO-MIDDLE"],"sizes":[100,200]}`, "per-job limit"},
		{"bad weight", `{"scenarios":["BASELINE"],"sizes":[100],"weight":99}`, "weight"},
		{"bad tenant", `{"scenarios":["BASELINE"],"sizes":[100],"tenant":"no spaces!"}`, "tenant"},
		{"bad origins", `{"scenarios":["BASELINE"],"sizes":[100],"origins":5000}`, "origins"},
		{"negative origins", `{"scenarios":["BASELINE"],"sizes":[100],"origins":-1}`, "origins -1: must be in 0..1000"},
		{"negative max_workers", `{"scenarios":["BASELINE"],"sizes":[100],"max_workers":-1}`, "max_workers -1"},
		{"negative cell_timeout_ms", `{"scenarios":["BASELINE"],"sizes":[100],"cell_timeout_ms":-1}`, "cell_timeout_ms -1"},
		{"negative deadline_ms", `{"scenarios":["BASELINE"],"sizes":[100],"deadline_ms":-1}`, "deadline_ms -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := submit(t, hs.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, body)
			}
			if !strings.Contains(body, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", body, tc.wantErr)
			}
		})
	}

	// Multiple violations are reported together.
	status, _, body := submit(t, hs.URL, `{"scenarios":[],"sizes":[10],"weight":99}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	for _, want := range []string{"scenarios", "size 10", "weight"} {
		if !strings.Contains(body, want) {
			t.Fatalf("combined error %q missing %q", body, want)
		}
	}

	// Unknown job IDs are 404 everywhere.
	for _, path := range []string{"/jobs/zzz", "/jobs/zzz/stream", "/jobs/zzz/result.csv"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestSubmitComputeAndResultCSV(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	st := installStub(srv, false)

	scenarios := []string{"BASELINE", "TREE"}
	sizes := []int{100, 200}
	status, v, body := submit(t, hs.URL,
		`{"scenarios":["BASELINE","TREE"],"sizes":[100,200],"origins":7,"tenant":"alice"}`)
	if status != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (%s)", status, body)
	}
	if v.ID == "" || v.Tenant != "alice" {
		t.Fatalf("bad admit view: %+v", v)
	}

	final := waitJob(t, hs.URL, v.ID)
	if final.State != JobDone {
		t.Fatalf("state = %s, want done (err=%q)", final.State, final.Err)
	}
	if final.Counts[cellDone] != 4 {
		t.Fatalf("done count = %d, want 4 (%v)", final.Counts[cellDone], final.Counts)
	}
	for _, c := range final.Cells {
		if c.State != cellDone || c.Detail != "computed" {
			t.Fatalf("cell %s/%d: state=%s detail=%s, want done/computed", c.Scenario, c.N, c.State, c.Detail)
		}
	}
	if st.total() != 4 {
		t.Fatalf("compute calls = %d, want 4", st.total())
	}

	got := fetchCSV(t, hs.URL, v.ID)
	want := expectedCSV(t, scenarios, sizes, 7)
	if got != want {
		t.Fatalf("result CSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A second identical submission is served entirely from cache.
	_, v2, _ := submit(t, hs.URL,
		`{"scenarios":["BASELINE","TREE"],"sizes":[100,200],"origins":7,"tenant":"alice"}`)
	final2 := waitJob(t, hs.URL, v2.ID)
	if final2.State != JobDone {
		t.Fatalf("rerun state = %s, want done", final2.State)
	}
	if st.total() != 4 {
		t.Fatalf("rerun recomputed: %d calls, want still 4", st.total())
	}
	for _, c := range final2.Cells {
		if c.Detail != "cached" {
			t.Fatalf("rerun cell %s/%d detail = %q, want cached", c.Scenario, c.N, c.Detail)
		}
	}
	if got2 := fetchCSV(t, hs.URL, v2.ID); got2 != want {
		t.Fatalf("cached CSV differs from computed CSV")
	}
}

// TestCrossClientDedup holds every compute in flight while two tenants
// submit overlapping grids, then checks each shared cell was computed
// exactly once — concurrent duplicates coalesce on the scheduler's
// singleflight cache.
func TestCrossClientDedup(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 8})
	st := installStub(srv, true)

	_, alice, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100,200],"tenant":"alice"}`)
	_, bob, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100,200,300],"tenant":"bob"}`)
	if alice.ID == "" || bob.ID == "" {
		t.Fatal("admission failed")
	}
	st.releaseAll()

	va := waitJob(t, hs.URL, alice.ID)
	vb := waitJob(t, hs.URL, bob.ID)
	if va.State != JobDone || vb.State != JobDone {
		t.Fatalf("states = %s/%s, want done/done", va.State, vb.State)
	}
	for _, n := range []int{100, 200, 300} {
		if got := st.callsFor("BASELINE", n); got != 1 {
			t.Fatalf("cell BASELINE/%d computed %d times, want exactly 1", n, got)
		}
	}
	stats := srv.Scheduler().CacheStats()
	if stats.Hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2 (the overlapping cells)", stats.Hits)
	}

	// The overlapping rows render byte-identically for both tenants: bob's
	// CSV is alice's (same header, same first two rows) plus the 300 row.
	csvA := fetchCSV(t, hs.URL, alice.ID)
	csvB := fetchCSV(t, hs.URL, bob.ID)
	if !strings.HasPrefix(csvB, csvA) {
		t.Fatalf("shared rows differ:\nalice:\n%s\nbob:\n%s", csvA, csvB)
	}
}

// TestTenantCancellationIsolation cancels one tenant's job while it shares
// an in-flight cell with another tenant: the survivor must still finish
// with correct results (the scheduler re-runs the dropped cell under the
// survivor's own context).
func TestTenantCancellationIsolation(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 8})
	st := installStub(srv, true)

	_, alice, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100],"tenant":"alice"}`)
	_, bob, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100,200],"tenant":"bob"}`)

	// Wait until alice's cell is actually in flight (blocked on the gate).
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, hs.URL, alice.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("alice's job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+alice.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}

	st.releaseAll()
	va := waitJob(t, hs.URL, alice.ID)
	vb := waitJob(t, hs.URL, bob.ID)
	if va.State != JobCancelled {
		t.Fatalf("alice state = %s, want cancelled", va.State)
	}
	if vb.State != JobDone {
		t.Fatalf("bob state = %s, want done (err=%q)", vb.State, vb.Err)
	}
	want := expectedCSV(t, []string{"BASELINE"}, []int{100, 200}, core.DefaultConfig(0).Origins)
	if got := fetchCSV(t, hs.URL, bob.ID); got != want {
		t.Fatalf("bob's CSV corrupted by alice's cancellation:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A cancelled job has no CSV.
	r2, err := http.Get(hs.URL + "/jobs/" + alice.ID + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled job result.csv status = %d, want 409", r2.StatusCode)
	}
}

// TestGlobalProgressIsSharedFeed streams churnd's /progress during a stubbed
// two-cell job: it carries core.Scheduler.PublishProgress's schema, the one
// cmd/experiments serves — "cell" events carrying the cell record and
// "attribution" events, with exactly these payload keys (a start record
// omits its zero attempt).
func TestGlobalProgressIsSharedFeed(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	installStub(srv, false)

	resp, err := http.Get(hs.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// The banner follows the subscription, so the job cannot outrun us.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ": bgpchurn progress stream") {
		t.Fatalf("missing stream banner: %q", sc.Text())
	}
	_, v, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100,200]}`)

	wantKeys := map[string][]string{
		"cell":                     {"attempt", "elapsed_ms", "n", "scenario", "seed", "state"},
		"cell.start":               {"elapsed_ms", "n", "scenario", "seed", "state"},
		"attribution":              {"cell", "cells", "rolling_mean"},
		"attribution.cell":         {"n", "peak_rate", "scenario", "total_updates", "u_C", "u_CP", "u_M", "u_T"},
		"attribution.rolling_mean": {"u_C", "u_CP", "u_M", "u_T"},
	}
	checkKeys := func(what string, payload map[string]any) {
		got := make([]string, 0, len(payload))
		for k := range payload {
			got = append(got, k)
		}
		sort.Strings(got)
		if want := wantKeys[what]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s payload keys = %v, want %v", what, got, want)
		}
	}
	counts := map[string]int{}
	event := ""
	for counts["attribution"] < 2 && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			counts[event]++
		case strings.HasPrefix(line, "data: "):
			var payload map[string]any
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &payload); err != nil {
				t.Fatalf("%s data line: %v", event, err)
			}
			if _, ok := wantKeys[event]; !ok {
				t.Fatalf("unexpected event %q on /progress", event)
			}
			if event == "cell" && payload["state"] == "start" {
				checkKeys("cell.start", payload)
			} else {
				checkKeys(event, payload)
			}
			if event == "attribution" {
				checkKeys("attribution.cell", payload["cell"].(map[string]any))
				checkKeys("attribution.rolling_mean", payload["rolling_mean"].(map[string]any))
			}
		}
	}
	if counts["cell"] != 4 || counts["attribution"] != 2 {
		t.Fatalf("event counts = %v, want 4 cell (start+done per cell) and 2 attribution", counts)
	}
	if got := waitJob(t, hs.URL, v.ID); got.State != JobDone {
		t.Fatalf("job state = %s, want done", got.State)
	}
}

// TestFinishedRetentionBoundedByBytes streams jobs of 2 800 cells each — a
// few MB of retained results apiece — through the server: the finished-job
// table stays under finishedRetentionBytes, the oldest jobs are forgotten
// first (404), and the newest finished job is always kept, even when it
// alone exceeds the bound.
func TestFinishedRetentionBoundedByBytes(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2, MaxJobCells: 4096})
	installStub(srv, false)
	var names, sizes []string
	for _, sc := range scenario.All() {
		names = append(names, fmt.Sprintf("%q", sc.Name))
	}
	for n := 50; len(sizes)*len(names) < 2800; n++ {
		sizes = append(sizes, fmt.Sprint(n))
	}
	body := fmt.Sprintf(`{"scenarios":[%s],"sizes":[%s],"origins":3}`, strings.Join(names, ","), strings.Join(sizes, ","))
	retained := func() (ids []string, bytes int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, r := range srv.finished {
			ids = append(ids, r.id)
		}
		return ids, srv.retained
	}

	var ids []string
	for i := 0; i < 10; i++ {
		status, v, raw := submit(t, hs.URL, body)
		if status != http.StatusAccepted {
			t.Fatalf("status = %d (%s)", status, raw)
		}
		if final := waitJob(t, hs.URL, v.ID); final.State != JobDone {
			t.Fatalf("job %s state = %s", v.ID, final.State)
		}
		ids = append(ids, v.ID)
		kept, bytes := retained()
		if bytes > finishedRetentionBytes {
			t.Fatalf("after job %d: %d retained bytes exceed the %d-byte bound", i, bytes, finishedRetentionBytes)
		}
		if kept[len(kept)-1] != v.ID {
			t.Fatalf("after job %d: newest finished job %s not retained (%v)", i, v.ID, kept)
		}
	}
	kept, _ := retained()
	if len(kept) < 2 || len(kept) >= len(ids) {
		t.Fatalf("%d of %d large jobs retained, want some but not all", len(kept), len(ids))
	}
	resp, err := http.Get(hs.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job: status %d, want 404", resp.StatusCode)
	}
	if v := getJob(t, hs.URL, kept[0]); v.State != JobDone {
		t.Fatalf("oldest retained job %s state = %s", kept[0], v.State)
	}

	// A job above the bound on its own is kept, alone.
	srv.mu.Lock()
	srv.retainLocked("huge", finishedRetentionBytes+1)
	srv.mu.Unlock()
	if kept, _ := retained(); len(kept) != 1 || kept[0] != "huge" {
		t.Fatalf("a job above the bound must be kept alone, retained %v", kept)
	}
}
