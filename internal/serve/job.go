package serve

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"
	"unsafe"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/core"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/report"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// JobState is a job's lifecycle position. Terminal states are JobDone,
// JobFailed and JobCancelled.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// cell run states.
const (
	cellPending   = "pending"
	cellRunning   = "running"
	cellDone      = "done"
	cellFailed    = "failed"
	cellCancelled = "cancelled"
)

// Job is one admitted sweep: a tenant's scenario x size grid flowing
// through the shared scheduler. All fields are guarded by the server mutex
// except the immutable identity fields and ctx/cancel.
type Job struct {
	id      string
	tenant  string
	weight  int
	created time.Time

	seed  uint64
	event core.Config

	ctx    context.Context
	cancel context.CancelCauseFunc

	cells     []*cellRun
	next      int // index of the first undispatched cell
	inflight  int
	remaining int // cells not yet terminal
	budget    int // max concurrently computing cells for this job
	state     JobState
	errMsg    string
	finished  time.Time
	broker    *obs.ProgressBroker
}

// cellRun is one (scenario, n) cell of a job.
type cellRun struct {
	job      *Job
	scenario scenario.Scenario
	n        int
	state    string
	detail   string // compute provenance: computed/cached/resumed/failed/quarantined/cancelled
	res      *core.Result
	errMsg   string
	elapsed  time.Duration // the scheduler's CellStatus.Elapsed
}

// tenant groups a client's active jobs for weighted round-robin dispatch.
type tenant struct {
	name   string
	weight int // current turn width: max weight of active jobs
	credit int // dispatches left in the current turn
	jobs   []*Job
}

// nextRunnable returns the tenant's next dispatchable cell: the first
// active job (FIFO) with undispatched cells and budget headroom.
func (t *tenant) nextRunnable() *cellRun {
	for _, j := range t.jobs {
		if (j.state == JobQueued || j.state == JobRunning) &&
			j.next < len(j.cells) && j.inflight < j.budget {
			return j.cells[j.next]
		}
	}
	return nil
}

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Tenant names the client for fairness accounting ("default" if empty).
	Tenant string `json:"tenant,omitempty"`
	// Weight is the tenant's WRR share, 1..MaxWeight (default 1). The
	// largest weight among a tenant's active jobs is used.
	Weight int `json:"weight,omitempty"`
	// Scenarios are paper scenario names (see scenario.All), e.g.
	// "BASELINE"; duplicates are rejected.
	Scenarios []string `json:"scenarios"`
	// Sizes are the network sizes to sweep; duplicates are rejected.
	Sizes []int `json:"sizes"`
	// Seed is the sweep-level topology seed (each size uses
	// core.CellSeed(Seed, size)).
	Seed uint64 `json:"seed,omitempty"`
	// Origins overrides the C-events per cell (default core.DefaultConfig).
	Origins int `json:"origins,omitempty"`
	// WRATE enables the paper's rate-limited protocol variant.
	WRATE bool `json:"wrate,omitempty"`
	// WarmStart skips the convergence flood via policy-SPF warm RIBs.
	WarmStart bool `json:"warm_start,omitempty"`
	// MaxWorkers caps this job's concurrent cells (0 = server default:
	// the full pool, shared fairly).
	MaxWorkers int `json:"max_workers,omitempty"`
	// CellTimeoutMS is a per-cell deadline in milliseconds; it may only
	// tighten the server's configured deadline.
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
	// DeadlineMS is a whole-job deadline in milliseconds; past it the
	// job's remaining cells are cancelled.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// buildJob validates a submission against the server's bounds and compiles
// it into a Job. It performs no admission (that needs the server mutex);
// invalid submissions return an error describing every violation.
func (s *Server) buildJob(req SubmitRequest) (*Job, error) {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	ten := req.Tenant
	if ten == "" {
		ten = "default"
	}
	if !tenantNameRE.MatchString(ten) {
		bad("tenant %q: must match %s", ten, tenantNameRE)
	}
	weight := req.Weight
	if weight == 0 {
		weight = 1
	}
	if weight < 1 || weight > DefaultMaxWeight {
		bad("weight %d: must be in 1..%d", req.Weight, DefaultMaxWeight)
	}

	if len(req.Scenarios) == 0 {
		bad("scenarios: at least one required")
	}
	scs := make([]scenario.Scenario, 0, len(req.Scenarios))
	seenSc := map[string]bool{}
	for _, name := range req.Scenarios {
		if seenSc[name] {
			bad("scenarios: duplicate %q", name)
			continue
		}
		seenSc[name] = true
		sc, err := scenario.ByName(name)
		if err != nil {
			bad("%v", err)
			continue
		}
		scs = append(scs, sc)
	}

	if len(req.Sizes) == 0 {
		bad("sizes: at least one required")
	}
	seenN := map[int]bool{}
	for _, n := range req.Sizes {
		if seenN[n] {
			bad("sizes: duplicate %d", n)
			continue
		}
		seenN[n] = true
		if n < minN || n > s.cfg.MaxN {
			bad("size %d: must be in %d..%d", n, minN, s.cfg.MaxN)
		}
	}
	if cells := len(req.Scenarios) * len(req.Sizes); cells > s.cfg.MaxJobCells {
		bad("%d cells (%d scenarios x %d sizes): exceeds the per-job limit of %d",
			cells, len(req.Scenarios), len(req.Sizes), s.cfg.MaxJobCells)
	}
	if req.Origins < 0 || req.Origins > 1000 {
		bad("origins %d: must be in 0..1000 (0 = default)", req.Origins)
	}
	if req.MaxWorkers < 0 {
		bad("max_workers %d: must be >= 0", req.MaxWorkers)
	}
	if req.CellTimeoutMS < 0 {
		bad("cell_timeout_ms %d: must be >= 0", req.CellTimeoutMS)
	}
	if req.DeadlineMS < 0 {
		bad("deadline_ms %d: must be >= 0", req.DeadlineMS)
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(problems, "; "))
	}

	ev := core.DefaultConfig(req.Seed)
	if req.WRATE {
		ev.BGP = bgp.WRATEConfig(req.Seed)
	}
	if req.Origins > 0 {
		ev.Origins = req.Origins
	}
	ev.WarmStart = req.WarmStart
	ev.Obs = s.metrics
	ev.CellTimeout = s.cfg.CellTimeout
	if req.CellTimeoutMS > 0 {
		d := time.Duration(req.CellTimeoutMS) * time.Millisecond
		if ev.CellTimeout == 0 || d < ev.CellTimeout {
			ev.CellTimeout = d
		}
	}

	budget := s.cfg.Workers
	if req.MaxWorkers > 0 && req.MaxWorkers < budget {
		budget = req.MaxWorkers
	}

	base := context.Background()
	var cancelTimeout context.CancelFunc
	if req.DeadlineMS > 0 {
		base, cancelTimeout = context.WithTimeout(base, time.Duration(req.DeadlineMS)*time.Millisecond)
	}
	ctx, cancel := context.WithCancelCause(base)
	j := &Job{
		tenant:  ten,
		weight:  weight,
		created: time.Now(),
		seed:    req.Seed,
		event:   ev,
		ctx:     ctx,
		budget:  budget,
		state:   JobQueued,
		broker:  obs.NewProgressBroker(),
	}
	j.cancel = func(cause error) {
		cancel(cause)
		if cancelTimeout != nil {
			cancelTimeout()
		}
	}
	for _, sc := range scs {
		for _, n := range req.Sizes {
			j.cells = append(j.cells, &cellRun{
				job:      j,
				scenario: sc,
				n:        n,
				state:    cellPending,
			})
		}
	}
	j.remaining = len(j.cells)
	return j, nil
}

// CellView is one cell's position in a job status response.
type CellView struct {
	Scenario  string  `json:"scenario"`
	N         int     `json:"n"`
	State     string  `json:"state"`
	Detail    string  `json:"detail,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// JobView is the GET /jobs/{id} response body (also the SSE "job" payload).
type JobView struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant"`
	State    JobState       `json:"state"`
	Created  time.Time      `json:"created"`
	Finished *time.Time     `json:"finished,omitempty"`
	Counts   map[string]int `json:"counts"`
	Err      string         `json:"err,omitempty"`
	Cells    []CellView     `json:"cells,omitempty"`
}

// viewLocked snapshots the job for JSON rendering. Caller holds s.mu.
func (j *Job) viewLocked(withCells bool) JobView {
	v := JobView{
		ID:      j.id,
		Tenant:  j.tenant,
		State:   j.state,
		Created: j.created,
		Counts:  map[string]int{},
		Err:     j.errMsg,
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	for _, c := range j.cells {
		v.Counts[c.state]++
		if withCells {
			v.Cells = append(v.Cells, CellView{
				Scenario:  c.scenario.Name,
				N:         c.n,
				State:     c.state,
				Detail:    c.detail,
				ElapsedMS: float64(c.elapsed) / float64(time.Millisecond),
				Err:       c.errMsg,
			})
		}
	}
	return v
}

// Per-job and per-cell allowances in retainedBytesLocked for what the
// structs do not show: the job's context, deadline timer and progress broker,
// and the JSON of each cell in the job view that broker replays to late
// stream subscribers.
const (
	jobOverheadBytes = 1024
	cellViewBytes    = 128
)

// retainedBytesLocked estimates what the job keeps alive once finished: the
// job and its cells, every cell's Result (counted per job even where the
// scheduler cache shares it), and the allowances above. Caller holds s.mu.
func (j *Job) retainedBytesLocked() int {
	n := int(unsafe.Sizeof(*j)) + jobOverheadBytes + len(j.errMsg)
	for _, c := range j.cells {
		n += int(unsafe.Sizeof(*c)) + cellViewBytes + len(c.detail) + len(c.errMsg)
		if c.res != nil {
			n += int(unsafe.Sizeof(*c.res))
		}
	}
	return n
}

// resultTable assembles the finished job's cells into the result CSV, rows
// in submission order (scenario major, size minor). Floats render at full
// precision (report.Float with 0 decimals round-trips float64 exactly), so
// the bytes are a deterministic function of the cell results — the
// byte-identical restart guarantee rides on this.
func (j *Job) resultTableLocked() *report.Table {
	t := report.NewTable("", "scenario", "n", "u_T", "u_M", "u_CP", "u_C", "total_updates", "peak_rate")
	for _, c := range j.cells {
		r := c.res
		if r == nil {
			continue
		}
		t.AddRow(
			c.scenario.Name,
			fmt.Sprint(c.n),
			report.Float(r.U(topology.T), 0),
			report.Float(r.U(topology.M), 0),
			report.Float(r.U(topology.CP), 0),
			report.Float(r.U(topology.C), 0),
			report.Float(r.TotalUpdates, 0),
			report.Float(r.PeakRate, 0),
		)
	}
	return t
}

// sortTenantsInto inserts name into the sorted WRR order if absent.
func sortTenantsInto(order []string, name string) []string {
	i := sort.SearchStrings(order, name)
	if i < len(order) && order[i] == name {
		return order
	}
	order = append(order, "")
	copy(order[i+1:], order[i:])
	order[i] = name
	return order
}
