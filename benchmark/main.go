// Command benchmark is the repository's one performance benchmark: four
// workloads (the figure grid, an n=50k cell on the inline and on the windowed
// executor, and churnd under concurrent tenants), each measured end to end
// with tracing off and, in a separate traced run, layer by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                                   all workloads, then their traced runs
//	go run ./benchmark -workload grid_paper -seed 7      one measured run
//	go run ./benchmark -workload grid_paper -trace 1     its traced run
//	go run ./benchmark -runs 5 -json a.json              five measured runs per workload, recorded
//	go run ./benchmark -compare a.json b.json            judge two recordings by BENCHMARK.json's bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// workload is one named set of inputs.
type workload struct {
	name  string
	why   string
	e2e   func(*env) (*outcome, error)
	trace func(*env, *recorder) (*outcome, error)
}

var workloads = []workload{
	{"grid_paper", "the paper's figure grid: many small cold cells through the scheduler, cache and journal",
		runGridE2E, runGridTrace},
	{"cell_warm_50k", "one internet-scale warm cell on the inline executor: time is in the DES queue, decision process and path interning",
		func(e *env) (*outcome, error) { return runCellE2E(e, false) },
		func(e *env, r *recorder) (*outcome, error) { return runCellTrace(e, false, r) }},
	{"cell_windowed_50k", "the same cell on the barrier-windowed sharded executor, which uses the bgp and des layers differently",
		func(e *env) (*outcome, error) { return runCellE2E(e, true) },
		func(e *env, r *recorder) (*outcome, error) { return runCellTrace(e, true, r) }},
	{"serve_tenants", "churnd under closed-loop tenants: admission, dispatch, dedup, journal fsync, SSE and CSV dominate, the engine does little",
		runServeE2E, runServeTrace},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runRecord is one run as `-json` stores it and `-compare` reads it.
type runRecord struct {
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        int
	smoke        bool
	runs         int
	jsonPath     string
	outDir       string
	updateGolden bool
	workers      int // 0 = nproc; tests force other counts
}

func main() {
	// The benchmark runs from the repository root (as `go run ./benchmark`
	// does): traces and scratch files go to benchmark/out.
	opt := options{outDir: filepath.Join("benchmark", "out")}
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "run one workload in this process (default: all four, each in a fresh child process)")
	flag.Uint64Var(&opt.seed, "seed", goldenSeed, "workload seed; goldens exist for seed 1")
	flag.IntVar(&opt.seconds, "seconds", 20, "time box of the measured phase")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny scale (n <= 1000), for tests")
	flag.IntVar(&opt.runs, "runs", 1, "measured runs per workload when running all (seeds seed, seed+1, ...)")
	flag.StringVar(&opt.jsonPath, "json", "", "append every run's record to this JSON file (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two -json recordings: -compare A.json B.json")
	flag.BoolVar(&opt.updateGolden, "update-golden", false, "write the run's simulated statistics to benchmark/golden as the new golden (seed 1 only)")
	flag.Parse()

	var err error
	code := 0
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
			break
		}
		code, err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case opt.workload != "":
		err = runOne(os.Stdout, opt)
	default:
		code, err = runAll(os.Stdout, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func newEnv(opt options, log io.Writer) *env {
	sc := fullScale
	if opt.smoke {
		sc = smokeScale
	}
	workers := opt.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	return &env{seed: opt.seed, seconds: float64(opt.seconds), sc: sc, workers: workers, outDir: opt.outDir, log: log}
}

// runOne measures one workload in this process and prints the report, the
// provenance line and, last, the result object of the driver's contract.
func runOne(w io.Writer, opt options) error {
	wl := findWorkload(opt.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	e := newEnv(opt, w)
	prov := newProvenance(wl.name, e, opt.trace)
	var o *outcome
	var err error
	var want []metricDef
	if opt.trace == 0 {
		want = endToEnd
		if o, err = wl.e2e(e); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if opt.updateGolden {
			if err := writeGolden(filepath.Join("benchmark", "golden"), o, e, wl.name); err != nil {
				return err
			}
		} else {
			checkGolden(o, e, wl.name)
		}
	} else {
		want = perLayer
		rec := newRecorder()
		if o, err = wl.trace(e, rec); err != nil {
			return fmt.Errorf("%s traced: %w", wl.name, err)
		}
		path := filepath.Join(e.outDir, "trace-"+wl.name+".jsonl")
		spans := rec.snapshot()
		if err := writeTrace(path, prov, spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(spans), path)
	}
	return printOutcome(w, wl, prov, o, want)
}

func printOutcome(w io.Writer, wl *workload, prov provenance, o *outcome, want []metricDef) error {
	fmt.Fprintf(w, "workload %s (seed %d, scale %s, trace %d): %s\n", wl.name, prov.Seed, prov.Scale, prov.Trace, wl.why)
	metrics := map[string]metricValue{}
	for _, d := range want {
		mv, ok := o.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not produce metric %s", wl.name, d.Name)
		}
		metrics[d.Name] = mv
		samples := ""
		if n, ok := o.Samples[d.Name]; ok {
			samples = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-6s%s\n", d.Name, mv.Value, mv.Unit, samples)
	}
	for _, n := range o.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range o.Problems {
		fmt.Fprintln(w, "  OUTPUT CHECK FAILED:", p)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", o.Attempted, o.Failed)
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload's measured run(s) and then its traced run,
// each in a fresh child process so peak RSS is that run's own high-water
// mark. It exits non-zero when any run fails its output check.
func runAll(w io.Writer, opt options) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	var records []runRecord
	bad := 0
	child := func(wl string, seed uint64, trace int) error {
		args := []string{"-workload", wl, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds),
			"-trace", fmt.Sprint(trace)}
		if opt.smoke {
			args = append(args, "-smoke")
		}
		if opt.updateGolden && trace == 0 {
			args = append(args, "-update-golden")
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(w, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (seed %d, trace %d): %w", wl, seed, trace, err)
		}
		rec, err := parseRunOutput(out.Bytes())
		if err != nil {
			return fmt.Errorf("%s (seed %d, trace %d): %w", wl, seed, trace, err)
		}
		if !rec.Correct {
			bad++
		}
		records = append(records, rec)
		return nil
	}
	// Workloads interleave across repetitions, so slow drift of the host
	// spreads over all of them instead of biasing one.
	for i := 0; i < opt.runs; i++ {
		for _, wl := range workloads {
			if err := child(wl.name, opt.seed+uint64(i), 0); err != nil {
				return 1, err
			}
		}
	}
	for _, wl := range workloads {
		if err := child(wl.name, opt.seed, 1); err != nil {
			return 1, err
		}
	}
	if opt.jsonPath != "" {
		if err := appendRecords(opt.jsonPath, records); err != nil {
			return 1, err
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "benchmark: %d of %d runs failed their output check\n", bad, len(records))
		return 1, nil
	}
	fmt.Fprintf(w, "benchmark: %d runs, every output check passed\n", len(records))
	return 0, nil
}

// parseRunOutput extracts the provenance line and the final result object
// from a child's standard output.
func parseRunOutput(out []byte) (runRecord, error) {
	var rec runRecord
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "provenance ") {
			if err := json.Unmarshal([]byte(line[len("provenance "):]), &rec.Provenance); err != nil {
				return rec, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec); err != nil {
		return rec, fmt.Errorf("last line is not a result object: %w", err)
	}
	return rec, nil
}

func readRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func appendRecords(path string, recs []runRecord) error {
	old, err := readRecords(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(append(old, recs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
