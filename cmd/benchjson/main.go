// Command benchjson records `go test -bench` output as a labeled entry in a
// JSON trajectory file, so benchmark numbers (ns/op, B/op, allocs/op and
// every ReportMetric value) can be compared across PRs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x ./internal/bgp . \
//	    | go run ./cmd/benchjson -label "post-PR2" -out BENCH_kernel.json
//
// The file holds a list of records in insertion order; re-using a label
// replaces that record in place. `make bench-kernel` wraps the invocation.
// A benchmark that appears several times on the input (`go test -count N`)
// is recorded once, as the per-metric median of its runs with their range.
//
// Every record carries its provenance — host CPU count and model, the
// GOMAXPROCS the benchmarks ran at, the Go version and the VCS revision —
// so a number is a claim about one commit on one machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"bgpchurn/internal/obs"
)

// Benchmark is one benchmark's measurements: every "value unit" pair from
// the result line, keyed by unit (ns/op, B/op, allocs/op, custom metrics).
type Benchmark struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Runs, Min and Max are present when the benchmark ran more than once
	// (-count): Metrics then holds each metric's median over the runs.
	Runs int                `json:"runs,omitempty"`
	Min  map[string]float64 `json:"min,omitempty"`
	Max  map[string]float64 `json:"max,omitempty"`
}

// Record is one labeled benchmark run.
type Record struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	// Provenance (absent from records older than the fields).
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	Revision   string `json:"revision,omitempty"`
	CPU        string `json:"cpu,omitempty"`

	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// File is the trajectory file's layout.
type File struct {
	Note    string   `json:"note"`
	Records []Record `json:"records"`
}

func main() {
	var (
		label = flag.String("label", "", "record label (required); an existing record with the same label is replaced")
		out   = flag.String("out", "BENCH_kernel.json", "trajectory file to update")
	)
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}

	rec := Record{
		Label:      *label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Benchmarks: map[string]Benchmark{},
	}
	runs := map[string][]Benchmark{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the run through for the terminal
		if model, ok := strings.CutPrefix(line, "cpu:"); ok {
			rec.CPU = strings.TrimSpace(model)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, procs, bm, ok := parseLine(line)
		if ok {
			runs[name] = append(runs[name], bm)
			// What the benchmarks ran at, not what this process sees; the
			// testing package omits the suffix at GOMAXPROCS=1.
			rec.GOMAXPROCS = max(procs, 1)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	for name, r := range runs {
		rec.Benchmarks[name] = summarize(r)
	}
	if len(rec.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}

	var f File
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *out, err))
		}
	}
	if f.Note == "" {
		f.Note = "Benchmark trajectory (go test -bench output recorded by cmd/benchjson; see `make bench-kernel`). Units: ns/op wall time, B/op heap bytes, allocs/op heap allocations; other keys are benchmark ReportMetric values."
	}
	replaced := false
	for i := range f.Records {
		if f.Records[i].Label == *label {
			f.Records[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		f.Records = append(f.Records, rec)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks as %q in %s\n", len(rec.Benchmarks), *label, *out)
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8 <tab> 100 <tab> 123 ns/op <tab> 7 allocs/op ...
//
// procs is the GOMAXPROCS suffix of the name (0 when absent: the testing
// package omits it at GOMAXPROCS=1).
func parseLine(line string) (name string, procs int, bm Benchmark, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", 0, Benchmark{}, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, Benchmark{}, false
	}
	bm = Benchmark{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, Benchmark{}, false
		}
		bm.Metrics[fields[i+1]] = v
	}
	return name, procs, bm, true
}

// summarize folds the runs of one benchmark into one entry: a single run as
// it is, several as the median of every metric plus the range they spanned.
func summarize(runs []Benchmark) Benchmark {
	if len(runs) == 1 {
		return runs[0]
	}
	out := Benchmark{
		Iterations: runs[0].Iterations,
		Metrics:    map[string]float64{},
		Runs:       len(runs),
		Min:        map[string]float64{},
		Max:        map[string]float64{},
	}
	for unit := range runs[0].Metrics {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[unit]; ok {
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		out.Min[unit], out.Max[unit] = vs[0], vs[len(vs)-1]
		out.Metrics[unit] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
	}
	return out
}

// revision is the VCS revision the record is taken at: the one stamped into
// this binary, or — `go run`, which is how the Makefile invokes this tool,
// stamps none — what git reports for the working directory, with "+dirty"
// when there are uncommitted changes. "unknown" outside a repository.
func revision() string {
	if rev := obs.GitRevision(); rev != "unknown" {
		return rev
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
