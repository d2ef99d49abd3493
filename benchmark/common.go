package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
	"bgpchurn/internal/topology"
)

// scale sizes the four workloads. fullScale is what BENCHMARK.json measures;
// smokeScale runs the same code in seconds for `go test`.
type scale struct {
	name string

	maxPasses int // 0 = repeat passes until the time box ends
	warmupN   int // size of the untimed warm-up cell in every set-up

	gridSizes   []int
	gridOrigins int

	cellBaseN   int // Generate this, then Grow to cellN
	cellN       int
	cellOrigins int

	serveSizes   []int
	serveOrigins int
	servePrimed  int // journal records replayed by serve.New in set-up
	serveMaxJobs int // per client; 0 = until the time box ends
	serveVerify  int // jobs per client re-computed directly for the output check

	desEvents     int // synthetic des.Scheduler schedule length
	mirrorOrigins int // origins per sampled cell in the grid/serve mirror
	journalProbes int // Journal.Append calls timed for core.journal.*
}

// Sizing (2-core sandbox, measured at the commit that added the benchmark):
// one grid pass ≈ 7.5 s, one n=50k pass of 2 origins ≈ 3–9 s depending on
// the seed's origins, ≈ 35 jobs/s on serve_tenants. With run_seconds = 20 a
// run holds 3 grid passes, 3–6 cell passes, ≈ 700 jobs.
var fullScale = scale{
	name:          "full",
	warmupN:       1000,
	gridSizes:     []int{1000, 2000, 3000, 4000, 5000},
	gridOrigins:   10,
	cellBaseN:     10000,
	cellN:         50000,
	cellOrigins:   2,
	serveSizes:    []int{300, 500, 800},
	serveOrigins:  5,
	servePrimed:   300,
	serveVerify:   4,
	desEvents:     2_000_000,
	mirrorOrigins: 3,
	journalProbes: 100,
}

var smokeScale = scale{
	name:          "smoke",
	maxPasses:     2, // a pass takes milliseconds here; the box would hold hundreds
	warmupN:       200,
	gridSizes:     []int{200, 300},
	gridOrigins:   2,
	cellBaseN:     500,
	cellN:         1000,
	cellOrigins:   2,
	serveSizes:    []int{100, 150},
	serveOrigins:  2,
	servePrimed:   20,
	serveMaxJobs:  3,
	serveVerify:   2,
	desEvents:     50_000,
	mirrorOrigins: 2,
	journalProbes: 10,
}

// env is what one workload run receives.
type env struct {
	seed    uint64
	seconds float64
	sc      scale
	workers int    // nproc: worker goroutines and HTTP clients never exceed it
	outDir  string // scratch and trace output, inside the checkout
	log     io.Writer
}

// tmpDir makes a fresh scratch directory under outDir; the caller removes it.
func (e *env) tmpDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, prefix+"-")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result: the contract's last line plus what the
// human-readable report and the golden check need.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
	Samples   map[string]int // sample count behind a timing metric
	Problems  []string       // output-check failures, each also counted in Failed
	Stats     simStats
	Notes     []string
}

func (o *outcome) set(name string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]metricValue{}
	}
	o.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

func (o *outcome) setN(name string, v float64, samples int) {
	o.set(name, v)
	if o.Samples == nil {
		o.Samples = map[string]int{}
	}
	o.Samples[name] = samples
}

func (o *outcome) problemf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	o.Failed++
}

// simStats is the fingerprint of a workload's simulated outputs. Host speed
// never enters it: two commits that simulate the same model agree on every
// field exactly, and the golden files hold it for seed 1.
type simStats struct {
	Cells        int        `json:"cells"`
	TotalUpdates float64    `json:"total_updates"` // Σ cells: mean updates per C-event × origins
	U            [4]float64 `json:"u_by_type"`     // Σ cells: U(T), U(M), U(CP), U(C)
	DownSeconds  float64    `json:"down_virtual_s"`
	UpSeconds    float64    `json:"up_virtual_s"`
	CSVSHA256    string     `json:"csv_sha256"`
}

// resultRow is one cell of a result table.
type resultRow struct {
	scenario string
	n        int
	res      *core.Result
}

// resultCSV renders rows exactly as churnd's GET /jobs/{id}/result.csv does
// (same columns, floats at full round-trip precision), so a job's CSV can be
// compared byte for byte with a direct computation.
func resultCSV(rows []resultRow) ([]byte, error) {
	t := report.NewTable("", "scenario", "n", "u_T", "u_M", "u_CP", "u_C", "total_updates", "peak_rate")
	for _, r := range rows {
		t.AddRow(
			r.scenario,
			strconv.Itoa(r.n),
			report.Float(r.res.U(topology.T), 0),
			report.Float(r.res.U(topology.M), 0),
			report.Float(r.res.U(topology.CP), 0),
			report.Float(r.res.U(topology.C), 0),
			report.Float(r.res.TotalUpdates, 0),
			report.Float(r.res.PeakRate, 0),
		)
	}
	var b bytes.Buffer
	if err := t.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// statsOf fingerprints a result table.
func statsOf(rows []resultRow) (simStats, error) {
	csv, err := resultCSV(rows)
	if err != nil {
		return simStats{}, err
	}
	st := simStats{Cells: len(rows)}
	for _, r := range rows {
		st.TotalUpdates += rowUpdates(r.res)
		for t := 0; t < 4; t++ {
			st.U[t] += r.res.ByType[t].U
		}
		st.DownSeconds += r.res.DownSeconds
		st.UpSeconds += r.res.UpSeconds
	}
	h := sha256.Sum256(csv)
	st.CSVSHA256 = hex.EncodeToString(h[:])
	return st, nil
}

// rowUpdates is the number of simulated updates one cell's measured C-events
// processed (Result.TotalUpdates is the mean per origin).
func rowUpdates(r *core.Result) float64 { return r.TotalUpdates * float64(r.Origins) }

// cpuSeconds is user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timed runs fn and returns its wall and CPU seconds.
func timed(fn func() error) (wallS, cpuS float64, err error) {
	c0, t0 := cpuSeconds(), time.Now()
	err = fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}

// repeatSetup runs one set-up until a second is spent, at least twice and at
// most 15 times, and returns each run's seconds: the median of a
// millisecond-scale set-up then rests on many samples, that of a
// seconds-scale one on two.
func repeatSetup(one func() error) ([]float64, error) {
	var secs []float64
	for total := 0.0; len(secs) < 2 || (total < 1 && len(secs) < 15); {
		w, _, err := timed(one)
		if err != nil {
			return nil, err
		}
		secs = append(secs, w)
		total += w
	}
	return secs, nil
}

// pass is one repetition of a workload's measured work.
type pass struct {
	wallS, cpuS float64
	updates     float64   // simulated updates delivered
	opsMS       []float64 // latency of each unit of service
	stats       simStats
}

// timedPasses repeats one until the time box is spent (always at least
// once; scale.maxPasses > 0 caps it). A collection before each
// pass clears what set-up and the previous pass left behind, so a pass's
// timing and the process's peak RSS do not depend on when that garbage
// happens to be collected.
func timedPasses(e *env, one func(i int) (pass, error)) ([]pass, error) {
	var out []pass
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		p, err := one(i)
		if err != nil {
			return out, err
		}
		out = append(out, p)
		if time.Since(start).Seconds() >= e.seconds || (e.sc.maxPasses > 0 && i+1 >= e.sc.maxPasses) {
			return out, nil
		}
	}
}

// finishE2E turns setup samples and passes into the end-to-end metrics.
// Throughput and CPU are per simulated update, so runs with different seeds
// (different origins, hence different work per pass) stay comparable; each is
// the median over passes. Latency percentiles are taken within a pass and
// the median over passes reported; nominalTail is the percentile the
// workload's design sample count supports, lowered when a run has fewer.
// peakRSS is the process's high-water mark read straight after the last
// pass, before any verification work of the benchmark's own.
func finishE2E(o *outcome, setupS []float64, passes []pass, nominalTail float64, peakRSS uint64) {
	var ups, cpu, p50, tail []float64
	samples := 0
	tailPct := nominalTail
	for _, p := range passes {
		ups = append(ups, ratio(p.updates, p.wallS))
		cpu = append(cpu, 1e6*ratio(p.cpuS, p.updates))
		if pct := tailPercentile(len(p.opsMS)); pct < tailPct {
			tailPct = pct
		}
		samples += len(p.opsMS)
	}
	for _, p := range passes {
		p50 = append(p50, median(p.opsMS))
		tail = append(tail, quantile(p.opsMS, tailPct/100))
	}
	o.setN("setup_s", median(setupS), len(setupS))
	o.setN("updates_per_s", median(ups), len(ups))
	o.setN("cpu_us_per_update", median(cpu), len(cpu))
	o.set("peak_rss_mb", float64(peakRSS)/(1<<20))
	o.setN("op_ms_p50", median(p50), samples)
	o.setN("op_ms_tail", median(tail), samples)
	o.Notes = append(o.Notes, fmt.Sprintf("op_ms_tail is p%g of %d samples over %d passes", tailPct, samples, len(passes)))
}

// checkDeterministic fails the run when two passes of the same inputs
// disagree on any simulated statistic.
func checkDeterministic(o *outcome, passes []pass) {
	for i := 1; i < len(passes); i++ {
		if passes[i].stats != passes[0].stats {
			o.problemf("pass %d simulated statistics differ from pass 0: %+v vs %+v", i, passes[i].stats, passes[0].stats)
		}
	}
}

// provenance is carried by every output: the fields no earlier BENCH_*.json
// record has.
type provenance struct {
	Workload   string `json:"workload"`
	Scale      string `json:"scale"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Shards     int    `json:"shards"`
	Clients    int    `json:"clients"`
	Date       string `json:"date"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// revision is the commit the benchmark measures. `go run` and `go test` do
// not stamp VCS information into the binary, so when the build carries none
// and the working directory is the root of a git checkout, git is asked.
// It looks no further than the working directory: the driver's checkout is
// not a repository, and the revision there stays "unknown".
func revision() string {
	if rev := obs.GitRevision(); rev != "unknown" {
		return rev
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func newProvenance(workload string, e *env, trace int) provenance {
	return provenance{
		Workload:   workload,
		Scale:      e.sc.name,
		Seed:       e.seed,
		Trace:      trace,
		Seconds:    int(e.seconds),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Shards:     shardCount(e.workers),
		Clients:    e.workers,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}
