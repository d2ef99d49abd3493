package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/serve"
	"bgpchurn/internal/topology"
)

// serve_tenants: churnd's serving layer (serve.New, journal on, default
// caps) behind loopback HTTP. Closed loop: nproc clients, one tenant each,
// each waits for its CSV before submitting again. A job is POST /jobs
// {BASELINE, DENSE-CORE} × sizes → GET /jobs/{id}/stream until the job event
// → GET /jobs/{id}/result.csv. Even-numbered jobs use a seed every tenant
// shares (dedup path), odd-numbered a tenant-private seed. Cells take
// milliseconds, so admission, dispatch, dedup, journal fsync, SSE and CSV
// rendering dominate and the engine does little.

// serveTail is the tail percentile of a full run's jobs. A run on the
// recording host holds ≈ 600 jobs, which would support p98 (≥ 500 samples),
// but a host a fifth slower falls below 500 and the metric would silently
// become another percentile. p95 needs 200 jobs, a third of what a run holds.
const serveTail = 95

var serveScenarios = []string{"BASELINE", "DENSE-CORE"}

// jobSeed derives a job's sweep seed from the benchmark seed. Shared seeds
// depend on the job number only, private ones on the tenant too.
func jobSeed(benchSeed uint64, client, k int) uint64 {
	base := benchSeed << 24
	if k%2 == 0 {
		return base + uint64(k)
	}
	return base + uint64(client+1)<<18 + uint64(k)
}

// serveInstance is one server behind a loopback listener.
type serveInstance struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
}

func (si *serveInstance) close() {
	si.ts.Close()
	si.srv.Close()
	os.RemoveAll(si.dir)
}

// primedJournal returns the bytes of the journal every set-up replays:
// servePrimed records with distinct keys around one small real result. It is
// input generation, not set-up, and is not timed.
func primedJournal(e *env) ([]byte, error) {
	topo, err := scenario.Baseline.Generate(e.sc.serveSizes[0], e.seed)
	if err != nil {
		return nil, err
	}
	ev := core.DefaultConfig(e.seed)
	ev.Origins = e.sc.serveOrigins
	ev.WarmStart = true
	res, err := core.RunCEvents(topo, ev)
	if err != nil {
		return nil, err
	}
	dir, err := e.tmpDir("serve-prime")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "primed.journal")
	j, err := core.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.sc.servePrimed; i++ {
		// Seeds no job uses, so primed records never answer a benchmark job.
		key := core.KeyFor(scenario.Baseline.Name, e.sc.serveSizes[0], ^uint64(i), ev)
		if err := j.Append(key, res); err != nil {
			j.Close()
			return nil, err
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// serveSetup is everything before the measured loop: serve.New replaying a
// copy of the primed journal, the listener, and one warm-up job.
func serveSetup(e *env, primed []byte) (*serveInstance, error) {
	dir, err := e.tmpDir("serve")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "churnd.journal")
	if err := os.WriteFile(path, primed, 0o644); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: e.workers, Journal: path})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	si := &serveInstance{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}
	if srv.Recovered() != e.sc.servePrimed {
		si.close()
		return nil, fmt.Errorf("serve.New recovered %d journal records, primed %d", srv.Recovered(), e.sc.servePrimed)
	}
	c := newServeClient(e, si, 0, nil, 0)
	if jr := c.runJob(-1, e.seed<<24|1<<23); jr.err != nil {
		si.close()
		return nil, fmt.Errorf("warm-up job: %w", jr.err)
	}
	c.hc.CloseIdleConnections()
	return si, nil
}

// jobRecord is one job as its client saw it. Times are milliseconds from the
// moment the POST was sent.
type jobRecord struct {
	client, k int
	seed      uint64
	id        string
	err       error
	shed      bool

	submitMS     float64 // POST → 202 body read
	runningMS    float64 // POST → first cell event in state running (queue wait)
	streamOpenMS float64 // stream GET sent → response headers
	firstCellMS  float64 // POST → first cell event in state done
	jobMS        float64 // POST → last CSV byte
	csvMS        float64 // CSV GET sent → last byte
	cellSumMS    float64 // Σ the job's cell ms, from the view the job event carries
	csv          []byte
}

// serveClient is one closed-loop tenant: one HTTP connection, one request
// in flight.
type serveClient struct {
	e      *env
	base   string
	tenant string
	idx    int
	hc     *http.Client
	rec    *recorder // nil on measured runs
	parent int
}

func newServeClient(e *env, si *serveInstance, idx int, rec *recorder, parent int) *serveClient {
	return &serveClient{
		e: e, base: si.ts.URL, tenant: fmt.Sprintf("tenant%d", idx), idx: idx,
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		rec: rec, parent: parent,
	}
}

func ms(since time.Time) float64 { return 1e3 * time.Since(since).Seconds() }

// runJob drives one job through submit → stream → CSV. Each step is a span
// that ends when the step returns, failed or not.
func (c *serveClient) runJob(k int, seed uint64) jobRecord {
	jr := jobRecord{client: c.idx, k: k, seed: seed}
	trace := fmt.Sprintf("job/%s/%d", c.tenant, k)
	jid := c.rec.start(c.parent, trace, "serve.job")
	defer c.rec.end(jid)
	body, _ := json.Marshal(serve.SubmitRequest{
		Tenant: c.tenant, Scenarios: serveScenarios, Sizes: c.e.sc.serveSizes,
		Seed: seed, Origins: c.e.sc.serveOrigins, WarmStart: true,
	})
	t0 := time.Now()
	if jr.err = c.submit(&jr, body, t0, jid, trace); jr.err != nil {
		return jr
	}
	if jr.err = c.stream(&jr, t0, jid, trace); jr.err != nil {
		return jr
	}
	jr.err = c.fetchCSV(&jr, t0, jid, trace)
	return jr
}

func (c *serveClient) submit(jr *jobRecord, body []byte, t0 time.Time, jid int, trace string) error {
	defer c.rec.end(c.rec.start(jid, trace, "serve.submit"))
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST /jobs: %w", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jr.submitMS = ms(t0)
	jr.shed = resp.StatusCode == http.StatusTooManyRequests
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /jobs: status %d, %v: %s", resp.StatusCode, err, bytes.TrimSpace(reply))
	}
	var view serve.JobView
	if err := json.Unmarshal(reply, &view); err != nil {
		return fmt.Errorf("POST /jobs reply: %w", err)
	}
	jr.id = view.ID
	return nil
}

// stream follows the job's SSE feed until the terminal job event; the server
// then ends the response.
func (c *serveClient) stream(jr *jobRecord, t0 time.Time, jid int, trace string) error {
	tid := c.rec.start(jid, trace, "serve.stream")
	defer c.rec.end(tid)
	ts := time.Now()
	resp, err := c.hc.Get(c.base + "/jobs/" + jr.id + "/stream")
	if err != nil {
		return fmt.Errorf("GET stream: %w", err)
	}
	jr.streamOpenMS = ms(ts)
	final, err := c.readStream(resp, t0, jr, trace, tid)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("stream of %s: %w", jr.id, err)
	}
	if final.State != serve.JobDone {
		return fmt.Errorf("job %s ended %s: %s", jr.id, final.State, final.Err)
	}
	if jr.firstCellMS == 0 { // finished before the stream opened: only the job event was seen
		jr.firstCellMS = ms(t0)
	}
	if jr.runningMS == 0 {
		jr.runningMS = jr.firstCellMS
	}
	for _, cv := range final.Cells {
		jr.cellSumMS += cv.ElapsedMS
	}
	return nil
}

func (c *serveClient) fetchCSV(jr *jobRecord, t0 time.Time, jid int, trace string) error {
	defer c.rec.end(c.rec.start(jid, trace, "serve.result_csv"))
	tc := time.Now()
	resp, err := c.hc.Get(c.base + "/jobs/" + jr.id + "/result.csv")
	if err != nil {
		return fmt.Errorf("GET result.csv: %w", err)
	}
	jr.csv, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	jr.csvMS = ms(tc)
	jr.jobMS = ms(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET result.csv: status %d, %v", resp.StatusCode, err)
	}
	return nil
}

// readStream parses the SSE feed: cell events stamp queue wait and first
// result, the job event carries the final view (with every cell's compute
// time, which is how the traced run prices serving overhead). On a traced
// run each cell's running → done interval, as the client saw it, becomes a
// core.cell span under the stream span, so what is left of the stream span
// is queue wait and event delivery.
func (c *serveClient) readStream(resp *http.Response, t0 time.Time, jr *jobRecord, trace string, streamSpan int) (serve.JobView, error) {
	var final serve.JobView
	runningAt := map[string]float64{}
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, done := "", false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "cell":
				var cv serve.CellView
				if err := json.Unmarshal([]byte(data), &cv); err != nil {
					return final, err
				}
				if jr.runningMS == 0 {
					jr.runningMS = ms(t0)
				}
				if cv.State == "done" && jr.firstCellMS == 0 {
					jr.firstCellMS = ms(t0)
				}
				cell := fmt.Sprintf("%s/%d", cv.Scenario, cv.N)
				switch cv.State {
				case "running":
					runningAt[cell] = c.rec.nowUS()
				case "done":
					if at, ok := runningAt[cell]; ok {
						c.rec.add(streamSpan, trace, "core.cell", at, c.rec.nowUS())
					}
				}
			case "job":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					return final, err
				}
				done = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	if !done {
		return final, fmt.Errorf("stream ended without a job event")
	}
	return final, nil
}

// serveLoop runs the closed loop: e.workers clients, each back to back until
// the time box ends (or serveMaxJobs at the smoke scale).
func serveLoop(e *env, si *serveInstance, seconds float64, rec *recorder, parent int, firstK int) (jobs []jobRecord, wallS, cpuS float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	wallS, cpuS, _ = timed(func() error {
		for ci := 0; ci < e.workers; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c := newServeClient(e, si, ci, rec, parent)
				defer c.hc.CloseIdleConnections()
				for k := firstK; time.Now().Before(deadline); k++ {
					if e.sc.serveMaxJobs > 0 && k-firstK >= e.sc.serveMaxJobs {
						return
					}
					jr := c.runJob(k, jobSeed(e.seed, ci, k))
					mu.Lock()
					jobs = append(jobs, jr)
					mu.Unlock()
				}
			}(ci)
		}
		wg.Wait()
		return nil
	})
	return jobs, wallS, cpuS
}

// csvUpdates sums total_updates × origins over a result CSV's rows.
func csvUpdates(b []byte, origins int) (float64, error) {
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return 0, err
	}
	var total float64
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[6], 64)
		if err != nil {
			return 0, err
		}
		total += v * float64(origins)
	}
	return total, nil
}

// directJob computes a submission without the server: one RunSweep per
// scenario, rows in submission order.
func directJob(e *env, seed uint64) ([]resultRow, error) {
	ev := core.DefaultConfig(seed)
	ev.Origins = e.sc.serveOrigins
	ev.WarmStart = true
	var rows []resultRow
	for _, name := range serveScenarios {
		sc, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		sw, err := core.RunSweep(context.Background(), sc, core.SweepConfig{Sizes: e.sc.serveSizes, TopologySeed: seed, Event: ev})
		if err != nil {
			return nil, err
		}
		for _, pt := range sw.Points {
			rows = append(rows, resultRow{name, pt.N, pt.R})
		}
	}
	return rows, nil
}

// checkServeJobs is the output check: every job succeeded; tenants that
// submitted the same shared-seed job got byte-identical CSVs; and the first
// serveVerify jobs of every client equal a direct computation byte for byte.
// It returns the delivered update total and the fingerprint of client 0's
// directly computed jobs (what the golden file holds for seed 1). Client 0
// exists at any core count, so the fingerprint does not depend on the host.
func checkServeJobs(e *env, o *outcome, jobs []jobRecord, firstK int) (updates float64, stats simStats, shed int, err error) {
	shared := map[int][]byte{}
	byClientK := map[[2]int]*jobRecord{}
	for i := range jobs {
		jr := &jobs[i]
		o.Attempted++
		if jr.shed {
			shed++
		}
		if jr.err != nil {
			o.problemf("job %d of client %d: %v", jr.k, jr.client, jr.err)
			continue
		}
		u, err := csvUpdates(jr.csv, e.sc.serveOrigins)
		if err != nil {
			o.problemf("job %s: unreadable CSV: %v", jr.id, err)
			continue
		}
		updates += u
		byClientK[[2]int{jr.client, jr.k}] = jr
		if jr.k%2 == 0 {
			if prev, ok := shared[jr.k]; ok && !bytes.Equal(prev, jr.csv) {
				o.problemf("shared-seed job %d: tenants received different CSVs", jr.k)
			}
			shared[jr.k] = jr.csv
		}
	}
	var fingerprint []resultRow
	direct := map[uint64][]byte{} // a shared seed is computed once for all tenants
	for ci := 0; ci < e.workers; ci++ {
		for k := firstK; k < firstK+e.sc.serveVerify; k++ {
			jr := byClientK[[2]int{ci, k}]
			if jr == nil {
				continue
			}
			want, ok := direct[jr.seed]
			if !ok {
				rows, err := directJob(e, jr.seed)
				if err != nil {
					return 0, stats, shed, err
				}
				if want, err = resultCSV(rows); err != nil {
					return 0, stats, shed, err
				}
				direct[jr.seed] = want
				if ci == 0 {
					fingerprint = append(fingerprint, rows...)
				}
			}
			if !bytes.Equal(want, jr.csv) {
				o.problemf("job %s (client %d, job %d): CSV differs from a direct RunSweep of the same submission", jr.id, ci, k)
			}
		}
	}
	stats, err = statsOf(fingerprint)
	return updates, stats, shed, err
}

func runServeE2E(e *env) (*outcome, error) {
	o := &outcome{}
	primed, err := primedJournal(e)
	if err != nil {
		return nil, err
	}

	var si *serveInstance
	setupS, err := repeatSetup(func() (err error) {
		if si != nil {
			si.close() // tearing the previous instance down is charged to set-up too
		}
		si, err = serveSetup(e, primed)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer si.close()

	runtime.GC() // as timedPasses does before a pass
	jobs, wallS, cpuS := serveLoop(e, si, e.seconds, nil, 0, 0)
	peakRSS := obs.PeakRSSBytes() // before the check's own direct sweeps
	updates, stats, shed, err := checkServeJobs(e, o, jobs, 0)
	if err != nil {
		return nil, err
	}
	o.Stats = stats
	p := pass{wallS: wallS, cpuS: cpuS, updates: updates}
	for _, jr := range jobs {
		if jr.err == nil {
			p.opsMS = append(p.opsMS, jr.jobMS)
		}
	}
	o.Notes = append(o.Notes, fmt.Sprintf("closed loop, %d clients: %d jobs attempted, %d succeeded, %d failed, %d shed; %.1f jobs/s",
		e.workers, len(jobs), len(p.opsMS), len(jobs)-len(p.opsMS), shed, ratio(float64(len(p.opsMS)), wallS)))
	finishE2E(o, setupS, []pass{p}, serveTail, peakRSS)
	return o, nil
}

// p50Of extracts one timing from every successful job and returns its median.
func p50Of(jobs []jobRecord, f func(*jobRecord) float64) (float64, []float64) {
	var xs []float64
	for i := range jobs {
		if jobs[i].err == nil {
			xs = append(xs, f(&jobs[i]))
		}
	}
	if len(xs) == 0 {
		return 0, nil
	}
	return median(xs), xs
}

// traceFirstK keeps the traced loop's job numbers, hence seeds, apart from
// the untraced loop's, so neither is answered from the other's cache.
const traceFirstK = 100_000

func runServeTrace(e *env, rec *recorder) (*outcome, error) {
	o := &outcome{}
	root := rec.start(0, "", "benchmark.run")
	sid := rec.start(root, "", "benchmark.setup")
	primed, err := primedJournal(e)
	if err != nil {
		return nil, err
	}
	si, err := serveSetup(e, primed)
	if err != nil {
		return nil, err
	}
	defer si.close()
	rec.end(sid)
	hub := si.srv.Metrics()
	topology.SetObsProbes(hub.NewTopoProbes())
	defer topology.SetObsProbes(nil)

	// Untraced reference loop, then the traced loop, each on half the box.
	uid := rec.start(root, "", "benchmark.untraced_loop")
	refJobs, _, _ := serveLoop(e, si, e.seconds/2, nil, 0, 0)
	rec.end(uid)
	if _, _, _, err := checkServeJobs(e, o, refJobs, 0); err != nil {
		return nil, err
	}

	before := hub.Snapshot()
	cacheBefore := si.srv.Scheduler().CacheStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tid := rec.start(root, "", "benchmark.traced_loop")
	jobs, wallS, cpuS := serveLoop(e, si, e.seconds/2, rec, tid, traceFirstK)
	rec.end(tid)
	runtime.ReadMemStats(&m1)
	after := hub.Snapshot()
	cache := si.srv.Scheduler().CacheStats()
	_, stats, shed, err := checkServeJobs(e, o, jobs, traceFirstK)
	if err != nil {
		return nil, err
	}
	o.Stats = stats
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}

	// Mirror: BASELINE at every job size, warm, stepped by hand.
	mid := rec.start(root, "", "benchmark.mirror_sample")
	ev := core.DefaultConfig(e.seed)
	ev.Origins = e.sc.serveOrigins
	ev.WarmStart = true
	mr, err := mirrorBaseline(rec, mid, e.seed, e.sc.serveSizes, ev)
	rec.end(mid)
	if err != nil {
		return nil, err
	}

	pid := rec.start(root, "", "benchmark.layer_probes")
	rows, err := directJob(e, jobSeed(e.seed, 0, 0))
	if err != nil {
		return nil, err
	}
	if err := probeJournal(e, o, rec, pid, rows); err != nil {
		return nil, err
	}
	if err := probeCSV(o, rec, pid, rows); err != nil {
		return nil, err
	}
	setCounters(o, delta)
	probeDES(e, o, rec, pid, o.Metrics["des.ring_push_frac"].Value)
	rec.end(pid)
	rec.end(root)

	jobP50, jobMS := p50Of(jobs, func(j *jobRecord) float64 { return j.jobMS })
	refP50, _ := p50Of(refJobs, func(j *jobRecord) float64 { return j.jobMS })
	firstP50, firstMS := p50Of(jobs, func(j *jobRecord) float64 { return j.firstCellMS })
	n := len(jobMS)
	tailPct := tailPercentile(n)
	set := func(name string, f func(*jobRecord) float64) {
		v, _ := p50Of(jobs, f)
		o.setN(name, v, n)
	}
	o.set("run.wall_s", wallS)
	o.set("run.cpu_s", cpuS)
	computed, hits := float64(cache.Misses-cacheBefore.Misses), float64(cache.Hits-cacheBefore.Hits)
	o.set("run.cells_per_s", ratio(computed, wallS))
	o.setN("serve.jobs_per_s", ratio(float64(n), wallS), n)
	set("serve.submit_ms_p50", func(j *jobRecord) float64 { return j.submitMS })
	set("serve.queue_wait_ms_p50", func(j *jobRecord) float64 { return j.runningMS })
	set("serve.stream_open_ms_p50", func(j *jobRecord) float64 { return j.streamOpenMS })
	set("serve.csv_ms_p50", func(j *jobRecord) float64 { return j.csvMS })
	set("serve.overhead_ms_p50", func(j *jobRecord) float64 { return j.jobMS - j.cellSumMS })
	o.setN("serve.first_cell_ms_p50", firstP50, n)
	o.setN("serve.first_cell_ms_tail", quantile(firstMS, tailPct/100), n)
	o.setN("serve.job_ms_p50", jobP50, n)
	o.setN("serve.job_ms_tail", quantile(jobMS, tailPct/100), n)
	o.set("serve.shed_count", delta["bgpchurn_serve_jobs_shed_total"])
	o.set("serve.dedup_hit_frac", ratio(hits, hits+computed))
	o.set("serve.sse_dropped", float64(si.srv.Progress().Dropped()))
	o.set("core.sched.cells_computed", computed)
	o.set("core.sched.cache_hits", hits)
	o.set("core.sched.cache_hit_frac", ratio(hits, hits+computed))
	var cellS float64
	for _, jr := range jobs {
		cellS += jr.cellSumMS / 1e3
	}
	o.set("core.sched.worker_busy_frac", ratio(cellS, wallS*float64(e.workers)))
	o.set("topology.generate_s", delta["bgpchurn_topo_gen_seconds_sum"])
	setMirror(o, mr)
	setOriginSpans(o, mr.programSpans)
	setEventRun(o, mr.programSpans)
	o.set("obs.trace_overhead_frac", ratio(jobP50, refP50)-1)
	setRuntime(o, &m0, &m1)
	o.Notes = append(o.Notes,
		fmt.Sprintf("closed loop, %d clients: traced loop %d jobs attempted, %d succeeded, %d failed, %d shed; tails are p%g",
			e.workers, len(jobs), n, len(jobs)-n, shed, tailPct))
	finishTrace(e, o, rec, tid, "serve_tenants traced loop")
	return o, nil
}
